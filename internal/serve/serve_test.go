package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// timingConfig is the paper-scale serving baseline: the MLPerf model
// sharded over 8 CLX sockets of the OPA cluster, CCL-style backend.
func timingConfig() Config {
	return Config{
		Cfg:      core.MLPerf,
		Replicas: 8,
		Topo:     fabric.NewPrunedFatTree(8, 12.5e9),
		Socket:   perfmodel.CLX8280,
		Backend:  cluster.CCLBackend,
		Policy:   Policy{MaxBatch: 32, MaxWait: 2e-3},
		Requests: 400,
	}
}

// loadQPS returns an offered rate at `factor` times the modeled capacity
// of c's policy batch size.
func loadQPS(t *testing.T, c Config, factor float64) float64 {
	t.Helper()
	probe := c
	probe.OfferedQPS = 1 // Validate needs a positive rate
	svc, err := probe.ServiceTime(c.Policy.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	return factor * float64(c.Replicas) * float64(c.Policy.MaxBatch) / svc
}

func mustRun(t *testing.T, c Config) *Result {
	t.Helper()
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestServeValidate(t *testing.T) {
	base := timingConfig()
	base.OfferedQPS = 1000
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero replicas", func(c *Config) { c.Replicas = 0 }, "Replicas"},
		{"too many replicas", func(c *Config) { c.Replicas = 27; c.Topo = fabric.NewPrunedFatTree(27, 12.5e9) }, "shards at most"},
		{"nil topo", func(c *Config) { c.Topo = nil }, "topology"},
		{"topo too small", func(c *Config) { c.Topo = fabric.NewPrunedFatTree(4, 12.5e9) }, "fewer than"},
		{"bad backend", func(c *Config) { c.Backend = cluster.Backend(99) }, "backend"},
		{"comm cores eat socket", func(c *Config) { c.Socket.Cores = 4 }, "no compute cores"},
		{"zero socket", func(c *Config) { c.Socket = perfmodel.Socket{} }, "Socket"},
		{"socket without gemm efficiency", func(c *Config) { c.Socket.GemmEff = 0 }, "GemmEff"},
		{"zero max batch", func(c *Config) { c.Policy.MaxBatch = 0 }, "MaxBatch"},
		{"negative max wait", func(c *Config) { c.Policy.MaxWait = -1 }, "MaxWait"},
		{"NaN max wait", func(c *Config) { c.Policy.MaxWait = math.NaN() }, "MaxWait NaN"},
		{"infinite max wait", func(c *Config) { c.Policy.MaxWait = math.Inf(1) }, "MaxWait +Inf"},
		{"negative slo", func(c *Config) { c.Policy.SLO = -1 }, "SLO"},
		{"NaN slo", func(c *Config) { c.Policy.SLO = math.NaN() }, "SLO NaN"},
		{"zero qps", func(c *Config) { c.OfferedQPS = 0 }, "OfferedQPS"},
		{"zero requests", func(c *Config) { c.Requests = 0 }, "Requests"},
		{"arrival clock overflows", func(c *Config) { c.OfferedQPS, c.Requests = 1e-310, 64 }, "OfferedQPS"},
		{"dataset without runcfg", func(c *Config) { c.Dataset = serveDataset(functionalModel()) }, "both RunCfg and Dataset"},
		{"broken model", func(c *Config) { c.Cfg.Tables = 0 }, "model config"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, runErr := Run(c); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Run error %v, want the Validate error %v", tc.name, runErr, err)
		}
	}
}

// TestServeDeterministic pins that a run is a pure function of its config:
// a fresh-workspace run and a reused-workspace rerun agree bit for bit.
func TestServeDeterministic(t *testing.T) {
	c := timingConfig()
	c.Policy.SLO = 30e-3
	c.OfferedQPS = loadQPS(t, c, 1.5)
	ws := NewWorkspaces()
	c.Workspaces = ws
	a := mustRun(t, c)
	warm := mustRun(t, c) // same workspace, now warm
	c.Workspaces = NewWorkspaces()
	fresh := mustRun(t, c)
	for _, got := range []*Result{warm, fresh} {
		if got.Served != a.Served || got.Shed != a.Shed || got.Batches != a.Batches {
			t.Fatalf("counts diverge: %+v vs %+v", got, a)
		}
		if got.Throughput != a.Throughput || got.P50 != a.P50 || got.P99 != a.P99 || got.Max != a.Max {
			t.Fatalf("stats diverge: %+v vs %+v", got, a)
		}
		if len(got.Latencies) != len(a.Latencies) {
			t.Fatalf("latency sample sizes diverge: %d vs %d", len(got.Latencies), len(a.Latencies))
		}
		for i := range a.Latencies {
			if got.Latencies[i] != a.Latencies[i] {
				t.Fatalf("latency %d diverges: %v vs %v", i, got.Latencies[i], a.Latencies[i])
			}
		}
	}
}

// TestServeSLONeverExceeded pins the shedding guarantee across under- and
// overload: no served request's latency exceeds the SLO, and at overload
// the bound binds (requests are shed, and the same load without an SLO
// blows through it).
func TestServeSLONeverExceeded(t *testing.T) {
	base := timingConfig()
	svc, err := func() (float64, error) {
		p := base
		p.OfferedQPS = 1
		return p.ServiceTime(base.Policy.MaxBatch)
	}()
	if err != nil {
		t.Fatal(err)
	}
	slo := 2 * (base.Policy.MaxWait + svc)
	for _, factor := range []float64{0.5, 1.5, 3} {
		c := base
		// Long enough for overload to build a real backlog: at 3x the
		// untreated queueing delay is several times the SLO.
		c.Requests = 4000
		c.Policy.SLO = slo
		c.OfferedQPS = loadQPS(t, c, factor)
		res := mustRun(t, c)
		if res.Served == 0 {
			t.Fatalf("load %.1fx: nothing served", factor)
		}
		if res.Max > slo {
			t.Fatalf("load %.1fx: max latency %.3gms exceeds SLO %.3gms", factor, res.Max*1e3, slo*1e3)
		}
		if factor >= 3 && res.Shed == 0 {
			t.Errorf("load %.1fx: expected shedding at overload", factor)
		}
		if factor >= 3 {
			free := c
			free.Policy.SLO = 0
			unbounded := mustRun(t, free)
			if unbounded.Max <= slo {
				t.Errorf("load %.1fx without SLO: max %.3gms never exceeds %.3gms — the bound is vacuous here", factor, unbounded.Max*1e3, slo*1e3)
			}
			if unbounded.Shed != 0 || unbounded.Served != free.Requests {
				t.Errorf("no-SLO run shed %d of %d requests", unbounded.Shed, free.Requests)
			}
		}
	}
}

// TestServePeakThroughputMonotone pins the reason the dispatcher batches:
// at saturation, a larger max-batch strictly increases sustained
// throughput (per-sample GEMM efficiency and call-overhead amortization).
func TestServePeakThroughputMonotone(t *testing.T) {
	prev := 0.0
	for _, b := range []int{1, 8, 32, 128} {
		c := timingConfig()
		c.Policy = Policy{MaxBatch: b, MaxWait: 5e-3}
		// A multiple of every batch size: no ragged tail waiting out
		// MaxWait to skew the short-run makespan.
		c.Requests = 30 * 128
		c.OfferedQPS = loadQPS(t, c, 3) // saturate
		res := mustRun(t, c)
		if res.Throughput <= prev {
			t.Fatalf("MaxBatch %d: throughput %.0f qps, not above the smaller MaxBatch %.0f", b, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

// TestServeMaxWaitBound pins the other half of the policy: under light
// load, no request waits past MaxWait plus one worst-case service.
func TestServeMaxWaitBound(t *testing.T) {
	c := timingConfig()
	c.OfferedQPS = loadQPS(t, c, 0.2)
	res := mustRun(t, c)
	probe := c
	svc, err := probe.ServiceTime(c.Policy.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	bound := c.Policy.MaxWait + svc + 1e-12
	if res.Max > bound {
		t.Fatalf("light load: max latency %.4gms exceeds MaxWait+service %.4gms", res.Max*1e3, bound*1e3)
	}
	if res.Served != c.Requests || res.Shed != 0 {
		t.Fatalf("light load without SLO: served %d shed %d of %d", res.Served, res.Shed, c.Requests)
	}
}

// TestServiceTimeShape sanity-checks the cost anchor drivers build sweeps
// from: positive, increasing in batch size, sublinear per sample.
func TestServiceTimeShape(t *testing.T) {
	c := timingConfig()
	c.OfferedQPS = 1
	s1, err := c.ServiceTime(1)
	if err != nil {
		t.Fatal(err)
	}
	s64, err := c.ServiceTime(64)
	if err != nil {
		t.Fatal(err)
	}
	if !(s1 > 0) || !(s64 > s1) {
		t.Fatalf("service times not increasing: s(1)=%g s(64)=%g", s1, s64)
	}
	if s64/64 >= s1 {
		t.Fatalf("no batching economy: per-sample s(64)=%g not below s(1)=%g", s64/64, s1)
	}
	if math.IsNaN(s1) || math.IsInf(s64, 0) {
		t.Fatalf("degenerate service times: %g %g", s1, s64)
	}
}

// TestServiceTimeIsPlanForward pins the price of a served batch to the terms
// the training plan is built from, bit for bit: the framework call, the
// slowest shard owner's embedding-forward charge (lookups plus cold-tier
// fetch) at n = b, the fan-in of the remote owners' bag outputs, and one
// GemmTimeN over the dense forward's work at b — and that work to the
// paper's counts, so a change to the plan's forward moves this test too.
func TestServiceTimeIsPlanForward(t *testing.T) {
	for _, budget := range []int{0, 256 << 20} {
		for _, replicas := range []int{1, 8} {
			c := tieredConfig(budget)
			c.Replicas = replicas
			dc := c.distConfig()
			cc := dc.ClusterConfig().WithDefaults()
			bot, top := c.Cfg.BotSizes(), c.Cfg.TopSizes()
			s, e := c.Cfg.Tables, c.Cfg.EmbDim
			for _, b := range []int{1, 32, 128} {
				flops, bytes := c.Cfg.Forward().Work(b)
				// An S(S+1)/2-pair dot product of E-wide vectors per sample,
				// reading the S+1 vectors and writing as much again.
				paperFlops := [3]float64{perfmodel.MLPPassFlops(bot, b), float64(b * s * (s + 1) * e), perfmodel.MLPPassFlops(top, b)}
				paperBytes := [3]float64{perfmodel.MLPPassBytes(bot, b), float64(8 * b * (s + 1) * e), perfmodel.MLPPassBytes(top, b)}
				if flops != paperFlops || bytes != paperBytes {
					t.Fatalf("b=%d: forward work %v flops / %v bytes, the paper's counts are %v / %v", b, flops, bytes, paperFlops, paperBytes)
				}
				lookups := 0.0
				for o := 0; o < replicas; o++ {
					fwd, cold := dc.EmbForward(o, b)
					if (cold != 0) != (budget > 0) {
						t.Fatalf("budget=%d: owner %d's cold-tier charge %v", budget, o, cold)
					}
					lookups = math.Max(lookups, fwd+cold)
				}
				dense := cc.Socket.GemmTimeN(flops[0]+flops[1]+flops[2], bytes[0]+bytes[1]+bytes[2], cc.ComputeCores(), b)
				perSrc := make([]float64, replicas)
				for o := range perSrc {
					perSrc[o] = float64(core.NumLocalTables(c.Cfg, o, replicas) * b * e * 4)
				}
				fanin := comm.FanIn{Topo: c.Topo}
				want := 0.0
				for r := 0; r < replicas; r++ {
					fetch := 0.0
					if replicas > 1 {
						fetch = fanin.Time(r, perSrc) * cc.CommSlowdown()
					}
					want = math.Max(want, cc.CallOverhead+lookups+fetch+dense)
				}
				got, err := c.ServiceTime(b)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("budget=%d R=%d b=%d: ServiceTime %v, the plan's terms give %v", budget, replicas, b, got, want)
				}
			}
		}
	}
}
