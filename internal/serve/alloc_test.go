package serve

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/testenv"
)

// Steady-state allocation discipline, by differencing: per-run constants
// (engine, result, the Preds slice in functional runs) appear in both the
// short and long run and cancel; anything the per-request path allocates
// would show up in the difference. Counter-based arrivals make the short
// run an exact prefix of the long one, so both see the same batch-size
// trajectory and the workspace warms identically.

func serveAllocProbe(t *testing.T, c Config, short, long int) {
	t.Helper()
	run := func(n int) {
		c2 := c
		c2.Requests = n
		if _, err := Run(c2); err != nil {
			t.Fatal(err)
		}
	}
	run(long) // warm the shared workspace at the larger size
	shortAllocs := testing.AllocsPerRun(5, func() { run(short) })
	longAllocs := testing.AllocsPerRun(5, func() { run(long) })
	if diff := longAllocs - shortAllocs; diff != 0 {
		t.Fatalf("steady state leaks: long run %v allocs, short %v (+%v across %d extra requests)",
			longAllocs, shortAllocs, diff, long-short)
	}
}

func TestServeZeroAllocSteadyState(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := timingConfig()
	c.Policy.SLO = 30e-3
	c.OfferedQPS = loadQPS(t, c, 1.5)
	c.Workspaces = NewWorkspaces()
	serveAllocProbe(t, c, 200, 800)
}

func TestServeFunctionalZeroAllocSteadyState(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := functionalConfig(8)
	c.Workspaces = NewWorkspaces()
	c.Pools = cluster.NewPools()
	defer c.Pools.Close()
	serveAllocProbe(t, c, 32, 96)
}
