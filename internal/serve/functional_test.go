package serve

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/testenv"
)

// functionalModel is the host-sized model functional runs execute: the
// Small config scaled to fit, BN=1 so probabilities are batch-size
// invariant.
func functionalModel() core.Config {
	return core.Small.Scaled(1.0 / 64)
}

func serveDataset(cfg core.Config) data.Dataset {
	return data.NewClickLog(9, cfg.DenseIn, cfg.Rows, cfg.Lookups)
}

// functionalConfig prices the full Small model while executing its scaled
// sibling across 3 replicas.
func functionalConfig(b int) Config {
	run := functionalModel()
	return Config{
		Cfg:        core.Small,
		Replicas:   3,
		Topo:       fabric.NewPrunedFatTree(3, 12.5e9),
		Socket:     perfmodel.CLX8280,
		Backend:    cluster.CCLBackend,
		Policy:     Policy{MaxBatch: b, MaxWait: 5e-3},
		OfferedQPS: 1e9, // near-simultaneous arrivals: every batch fills
		Requests:   32,
		Seed:       17,
		RunCfg:     &run,
		Dataset:    serveDataset(run),
	}
}

// serveFuncConfig is the serve-func benchmark's shape over the functional
// model: the Small config priced across 8 replicas, policy B32 / w2 ms with
// an SLO of 2·(MaxWait + service), the request log replayed at 0.9 ×
// modelled capacity.
func serveFuncConfig(tb testing.TB, requests int) Config {
	tb.Helper()
	c := functionalConfig(32)
	c.Replicas, c.Topo = 8, fabric.NewPrunedFatTree(8, 12.5e9)
	c.Policy.MaxWait = 2e-3
	svc, err := c.ServiceTime(c.Policy.MaxBatch)
	if err != nil {
		tb.Fatal(err)
	}
	c.Policy.SLO = 2 * (c.Policy.MaxWait + svc)
	c.OfferedQPS = 0.9 * float64(c.Replicas*c.Policy.MaxBatch) / svc
	c.Requests = requests
	c.Dataset = data.NewRequestLog(c.Seed, c.RunCfg.DenseIn, c.RunCfg.Rows, c.RunCfg.Lookups)
	return c
}

// TestServeFunctionalParity pins the functional guarantee: whatever batch a
// request rides in (1, B/2, or B), and whichever backend prices the run,
// its served probability is bit-identical to the same sample through the
// full single-socket model.
func TestServeFunctionalParity(t *testing.T) {
	run := functionalModel()
	ds := serveDataset(run)
	full := core.NewPredictor(core.NewModel(run, 1, 17), par.Default)
	const R = 32
	var mb data.MiniBatch
	ref := make([]float32, R)
	for k := 0; k < R; k++ {
		ds.FillRange(0, R, k, k+1, &mb)
		full.PredictInto(&mb, ref[k:k+1])
	}
	const B = 8
	for _, b := range []int{1, B / 2, B} {
		var lastPreds []float32
		for _, backend := range []cluster.Backend{cluster.CCLBackend, cluster.MPIBackend} {
			c := functionalConfig(b)
			c.Backend = backend
			res := mustRun(t, c)
			if res.Served != c.Requests || res.Shed != 0 {
				t.Fatalf("b=%d %v: served %d shed %d of %d", b, backend, res.Served, res.Shed, c.Requests)
			}
			if want := c.Requests / b; res.Batches != want {
				t.Fatalf("b=%d %v: %d batches, want %d full ones", b, backend, res.Batches, want)
			}
			for k := 0; k < R; k++ {
				if res.Preds[k] != ref[k] {
					t.Fatalf("b=%d %v request %d: served %v, full model %v", b, backend, k, res.Preds[k], ref[k])
				}
			}
			if lastPreds != nil {
				for k := range lastPreds {
					if res.Preds[k] != lastPreds[k] {
						t.Fatalf("b=%d: predictions differ across backends at request %d", b, k)
					}
				}
			}
			lastPreds = res.Preds
		}
	}
}

// TestServeFunctionalRequestLog serves the request log — the serving traffic
// dataset, whose fills copy hot entities' profiles once built — through the
// replicas: sampled predictions equal the single-socket model's over a fresh
// log bit for bit, a second Run over the warm profiles serves the same bits,
// and once they are warm a longer replay allocates nothing more.
func TestServeFunctionalRequestLog(t *testing.T) {
	run := functionalModel()
	logOf := func() data.Dataset { return data.NewRequestLog(9, run.DenseIn, run.Rows, run.Lookups) }
	c := functionalConfig(8)
	c.Requests = 96
	c.Dataset = logOf()
	c.Workspaces = NewWorkspaces()
	c.Pools = cluster.NewPools()
	defer c.Pools.Close()
	first, second := mustRun(t, c), mustRun(t, c)
	if first.Served != c.Requests {
		t.Fatalf("served %d of %d", first.Served, c.Requests)
	}
	for k := range first.Preds {
		if math.Float32bits(second.Preds[k]) != math.Float32bits(first.Preds[k]) {
			t.Fatalf("request %d: second run served %v, first %v", k, second.Preds[k], first.Preds[k])
		}
	}
	ref, full := logOf(), core.NewPredictor(core.NewModel(run, 1, c.Seed), par.Default)
	var mb data.MiniBatch
	out := make([]float32, 1)
	for k := 0; k < c.Requests; k += 5 {
		ref.FillRange(0, c.Requests, k, k+1, &mb)
		full.PredictInto(&mb, out)
		if math.Float32bits(out[0]) != math.Float32bits(first.Preds[k]) {
			t.Fatalf("request %d: served %v, single socket %v", k, first.Preds[k], out[0])
		}
	}
	if !testenv.Race { // allocation counts are perturbed by the race detector
		serveAllocProbe(t, c, 32, 96)
	}
}

// TestServeFunctionalShedMarksNaN pins the Preds contract: shed requests
// stay NaN, served ones do not.
func TestServeFunctionalShedMarksNaN(t *testing.T) {
	c := functionalConfig(8)
	// A hopeless SLO with a huge offered rate: only the head of each
	// batch window can ever make it, the rest shed.
	svc, err := c.ServiceTime(1)
	if err != nil {
		t.Fatal(err)
	}
	c.Policy.SLO = 1.5 * svc
	res := mustRun(t, c)
	if res.Shed == 0 {
		t.Fatal("expected shedding under a tight SLO at overload")
	}
	if res.Served+res.Shed != c.Requests {
		t.Fatalf("served %d + shed %d != offered %d", res.Served, res.Shed, c.Requests)
	}
	nan, served := 0, 0
	for _, p := range res.Preds {
		if math.IsNaN(float64(p)) {
			nan++
		} else {
			served++
			if p < 0 || p > 1 {
				t.Fatalf("served probability %v out of range", p)
			}
		}
	}
	if nan != res.Shed || served != res.Served {
		t.Fatalf("Preds mark %d NaN / %d served, result says %d / %d", nan, served, res.Shed, res.Served)
	}
}

// faultyFill serves its dataset's requests but breaks the at-th FillRange:
// with panics set it panics there; without, it returns a batch with one bag
// too many, which the serving replica's first table Forward rejects.
type faultyFill struct {
	data.Dataset
	at, calls int
	panics    bool
}

func (d *faultyFill) FillRange(i, n, lo, hi int, mb *data.MiniBatch) {
	d.calls++
	if d.calls == d.at && d.panics {
		panic("faultyFill: fill panics")
	}
	d.Dataset.FillRange(i, n, lo, hi, mb)
	if d.calls == d.at {
		mb.Sparse[0].Offsets = append(mb.Sparse[0].Offsets, mb.Sparse[0].Offsets[mb.N])
	}
}

// TestServeFunctionalPanicJoinsHelper pins the evaluation pass's goroutine
// lifetime: a panic in the third batch's fill (on the helper goroutine) or
// in its forward (on the caller's) comes out of Run on the caller's
// goroutine, no goroutine outlives the Run, the workspace is released, and
// the same workspace then serves a normal run exactly as a fresh one does.
func TestServeFunctionalPanicJoinsHelper(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		panics     bool
	}{
		{"fill panics", "faultyFill: fill panics", true},
		{"forward panics", "embedding: forward out len", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := functionalConfig(4) // eight batches: a forward panic leaves fills to stop
			c.Workspaces = NewWorkspaces()
			c.Pools = cluster.NewPools()
			defer c.Pools.Close()
			mustRun(t, c) // build the replicas and start every pool worker
			before := runtime.NumGoroutine()

			bad := c
			bad.Dataset = &faultyFill{Dataset: c.Dataset, at: 3, panics: tc.panics}
			var p any
			func() {
				defer func() { p = recover() }()
				Run(bad)
			}()
			if msg, _ := p.(string); !strings.Contains(msg, tc.want) {
				t.Fatalf("Run panicked with %v, want a panic with %q", p, tc.want)
			}
			// A leaked goroutine only raises the count; one still exiting when
			// before was read (the warm-up Run's joined fill helper) only
			// lowers it.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the panic, %d before the Run", runtime.NumGoroutine(), before)
				}
			}
			if c.Workspaces.inUse.Load() {
				t.Fatal("a panicking Run kept the workspace")
			}
			fresh := c
			fresh.Workspaces = NewWorkspaces()
			sameResult(t, "after the panic", mustRun(t, c), mustRun(t, fresh))
		})
	}
}
