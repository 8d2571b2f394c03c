// Tests for the tiered embedding-store pricing of replica shard pulls:
// validation of the knob set, monotone service time in the cache budget,
// and the zero-value path staying bit-identical.
package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// tieredConfig returns the timing baseline with a tiered store of the
// given budget.
func tieredConfig(budget int) Config {
	c := timingConfig()
	c.OfferedQPS = 1000
	c.EmbCacheBytes = budget
	if budget > 0 {
		c.ColdTierBW = core.DefaultColdTierBW
	}
	return c
}

func TestServeValidateEmbStore(t *testing.T) {
	if err := tieredConfig(256 << 20).Validate(); err != nil {
		t.Fatalf("tiered baseline rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative emb cache", func(c *Config) { c.EmbCacheBytes = -1 }, "EmbCacheBytes=-1"},
		{"cache without cold bw", func(c *Config) { c.EmbCacheBytes = 64 << 20 }, "without ColdTierBW"},
		{"negative cold bw", func(c *Config) { c.EmbCacheBytes = 64 << 20; c.ColdTierBW = -2 }, "ColdTierBW"},
		{"NaN cold bw", func(c *Config) { c.EmbCacheBytes = 64 << 20; c.ColdTierBW = math.NaN() }, "ColdTierBW=NaN"},
		{"cold bw without cache", func(c *Config) { c.ColdTierBW = 8e9 }, "without EmbCacheBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := timingConfig()
			c.OfferedQPS = 1000
			tc.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestTieredServiceTimeMonotone pins the pricing shape: any tiered config
// is at least as slow as the in-RAM baseline (a cache over RAM cannot beat
// RAM), growing the budget never slows a batch, and an all-cold store is
// strictly slower than a hot-budget one.
func TestTieredServiceTimeMonotone(t *testing.T) {
	const b = 32
	svc := func(c Config) float64 {
		t.Helper()
		s, err := c.ServiceTime(b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	inRAM := svc(tieredConfig(0))
	var prev float64
	for i, budget := range []int{4 << 10, 64 << 20, 1 << 30, 8 << 30} {
		got := svc(tieredConfig(budget))
		if got < inRAM {
			t.Errorf("budget=%d: tiered service %v beats in-RAM %v", budget, got, inRAM)
		}
		if i > 0 && got > prev {
			t.Errorf("budget=%d: service %v slower than smaller budget's %v", budget, got, prev)
		}
		prev = got
	}
	if hot, cold := svc(tieredConfig(8<<30)), svc(tieredConfig(4<<10)); hot >= cold {
		t.Errorf("hot budget service %v does not beat all-cold %v", hot, cold)
	}
}

// TestTieredServeRunDeterministic runs the full dispatcher with tiered
// pricing twice and demands identical results — and a strictly worse p50
// than the untiered run at the same offered load (the cold tail is paid on
// every batch).
func TestTieredServeRunDeterministic(t *testing.T) {
	base := timingConfig()
	base.Requests = 200
	base.OfferedQPS = loadQPS(t, base, 0.8)
	tiered := base
	tiered.EmbCacheBytes = 64 << 20
	tiered.ColdTierBW = core.DefaultColdTierBW
	a, b := mustRun(t, tiered), mustRun(t, tiered)
	if a.P50 != b.P50 || a.P99 != b.P99 || a.Served != b.Served {
		t.Fatalf("tiered run not deterministic: p50 %v/%v p99 %v/%v served %d/%d",
			a.P50, b.P50, a.P99, b.P99, a.Served, b.Served)
	}
	plain := mustRun(t, base)
	if a.P50 <= plain.P50 {
		t.Errorf("tiered p50 %v not above in-RAM p50 %v", a.P50, plain.P50)
	}
}
