package cluster

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

func testCfg(ranks int, b Backend) Config {
	return Config{
		Ranks:        ranks,
		Topo:         fabric.NewPrunedFatTree(max(ranks, 1), 12.5e9),
		Socket:       perfmodel.CLX8280,
		Backend:      b,
		CallOverhead: 1e-9, // negligible for the logic tests
		Interference: 1.3,
	}
}

// sumXchg is the payload/args record of the test collective: v carries one
// rank's contribution in and the reduced sum out; dur is the modeled
// duration (read from the leader rank's record, identical on all ranks).
type sumXchg struct{ v, dur float64 }

func sumLead(arg any, payloads []any, _ float64) float64 {
	a := arg.(*sumXchg)
	var sum float64
	for _, p := range payloads {
		sum += p.(*sumXchg).v
	}
	for _, p := range payloads {
		p.(*sumXchg).v = sum
	}
	return a.dur
}

// sumCollective issues the test collective and returns the reduced value.
func sumCollective(r *Rank, label string, v, dur float64) (float64, Handle) {
	x := &sumXchg{v: v, dur: dur}
	h := r.Collective(label, x, x, sumLead)
	return x.v, h
}

func TestCollectiveMovesData(t *testing.T) {
	stats := runEngines(t, testCfg(4, MPIBackend), func(r *Rank) {
		res, h := sumCollective(r, "sum", float64(r.ID+1), 0.001)
		r.Wait(h)
		if res != 10 { // 1+2+3+4
			t.Errorf("rank %d got %v want 10", r.ID, res)
		}
	})
	if len(stats) != 4 {
		t.Fatalf("expected 4 stats, got %d", len(stats))
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	// CCL with 4 comm cores has no comm slowdown, so durations are exact.
	stats := runEngines(t, testCfg(2, CCLBackend), func(r *Rank) {
		r.Compute(0.5)
		_, h := sumCollective(r, "op", 0, 0.25)
		r.Wait(h)
		if got := r.Now(); math.Abs(got-0.75) > 1e-6 {
			t.Errorf("rank %d time %g want 0.75", r.ID, got)
		}
	})
	for _, s := range stats {
		if math.Abs(s.Compute-0.5) > 1e-9 {
			t.Fatalf("compute time %g want 0.5", s.Compute)
		}
		if math.Abs(s.Wait["op"]-0.25) > 1e-6 {
			t.Fatalf("wait %g want 0.25", s.Wait["op"])
		}
	}
}

func TestCollectiveStartsAtSlowestRank(t *testing.T) {
	runEngines(t, testCfg(3, CCLBackend), func(r *Rank) {
		r.Compute(float64(r.ID) * 0.1) // rank 2 arrives at 0.2
		_, h := sumCollective(r, "op", 0, 0.05)
		r.Wait(h)
		want := 0.25
		if math.Abs(r.Now()-want) > 1e-6 {
			t.Errorf("rank %d finishes at %g want %g", r.ID, r.Now(), want)
		}
	})
}

func TestOverlapHidesCommunication(t *testing.T) {
	// Enqueue a 0.2s collective, compute 0.3s, then wait: exposed wait ≈ 0.
	stats := runEngines(t, testCfg(2, CCLBackend), func(r *Rank) {
		_, h := sumCollective(r, "ar", 0, 0.2)
		r.Compute(0.3)
		r.Wait(h)
	})
	for _, s := range stats {
		if s.Wait["ar"] > 1e-6 {
			t.Fatalf("overlapped wait should be ~0, got %g", s.Wait["ar"])
		}
	}
	// Blocking config exposes the full communication.
	cfg := testCfg(2, CCLBackend)
	cfg.Blocking = true
	stats = runEngines(t, cfg, func(r *Rank) {
		_, h := sumCollective(r, "ar", 0, 0.2)
		r.Compute(0.3)
		r.Wait(h) // no-op: already waited at enqueue
	})
	for _, s := range stats {
		if math.Abs(s.Wait["ar"]-0.2) > 1e-6 {
			t.Fatalf("blocking wait %g want 0.2", s.Wait["ar"])
		}
	}
}

func TestMPIFIFOInOrderCompletion(t *testing.T) {
	// Under MPI, a wait on the second collective (alltoall) pays for the
	// first (allreduce) queued before it — §VI-D's in-order artifact.
	stats := runEngines(t, testCfg(2, MPIBackend), func(r *Rank) {
		_, h1 := sumCollective(r, "allreduce", 0, 0.4)
		_, h2 := sumCollective(r, "alltoall", 0, 0.1)
		r.Wait(h2) // only waits the alltoall handle
		r.Wait(h1)
	})
	for _, s := range stats {
		// With the MPI single-progress-thread slowdown (1.5×), the alltoall
		// finishes at 0.6 + 0.15 = 0.75, all exposed at the alltoall wait.
		if math.Abs(s.Wait["alltoall"]-0.75) > 1e-3 {
			t.Fatalf("MPI in-order: alltoall wait %g want ≈0.75", s.Wait["alltoall"])
		}
		if s.Wait["allreduce"] > 1e-6 {
			t.Fatalf("allreduce wait should be absorbed, got %g", s.Wait["allreduce"])
		}
	}
}

func TestCCLChannelsOverlapIndependentOps(t *testing.T) {
	// Under CCL, differently-labeled collectives use different channels and
	// proceed concurrently.
	cfg := testCfg(2, CCLBackend)
	stats := runEngines(t, cfg, func(r *Rank) {
		_, h1 := sumCollective(r, "allreduce", 0, 0.4)
		_, h2 := sumCollective(r, "alltoall", 0, 0.1)
		r.Wait(h2)
		r.Wait(h1)
	})
	for _, s := range stats {
		// alltoall finishes at ~0.1 — not after the allreduce.
		if s.Wait["alltoall"] > 0.11 {
			t.Fatalf("CCL alltoall wait %g, want ≈0.1 (concurrent channels)", s.Wait["alltoall"])
		}
	}
}

func TestCollectiveOnPinsChannel(t *testing.T) {
	// Same label, explicit distinct channels: the two operations must run
	// concurrently instead of serializing on the label-hash channel.
	cfg := testCfg(2, CCLBackend)
	pinned := runEngines(t, cfg, func(r *Rank) {
		x1 := &sumXchg{dur: 0.4}
		h1 := r.CollectiveOn("redist", 0, x1, x1, sumLead)
		x2 := &sumXchg{dur: 0.4}
		h2 := r.CollectiveOn("redist", 1, x2, x2, sumLead)
		r.Wait(h1)
		r.Wait(h2)
	})
	hashed := runEngines(t, cfg, func(r *Rank) {
		_, h1 := sumCollective(r, "redist", 0, 0.4)
		_, h2 := sumCollective(r, "redist", 0, 0.4)
		r.Wait(h1)
		r.Wait(h2)
	})
	for i := range pinned {
		pw, hw := pinned[i].TotalWait(), hashed[i].TotalWait()
		if pw >= hw {
			t.Fatalf("rank %d: pinned channels wait %g must beat same-channel FIFO %g", i, pw, hw)
		}
	}
	// MPI has a single channel: a hint must not change anything.
	mpi := runEngines(t, testCfg(2, MPIBackend), func(r *Rank) {
		x1 := &sumXchg{dur: 0.4}
		h1 := r.CollectiveOn("redist", 0, x1, x1, sumLead)
		x2 := &sumXchg{dur: 0.4}
		h2 := r.CollectiveOn("redist", 3, x2, x2, sumLead)
		r.Wait(h1)
		r.Wait(h2)
	})
	for i := range mpi {
		if mpi[i].TotalWait() < 0.79 {
			t.Fatalf("rank %d: MPI must serialize regardless of channel hints (wait %g)", i, mpi[i].TotalWait())
		}
	}
}

func TestAsyncBackgroundCharge(t *testing.T) {
	// Async work is hidden behind compute issued before its Wait, exposed
	// only when compute is too short, and FIFO on its one background thread.
	runEngines(t, testCfg(1, CCLBackend), func(r *Rank) {
		h := r.Async("loader", 0.3)
		r.Compute(0.5) // longer than the prefetch: fully hidden
		t0 := r.Now()
		r.Wait(h)
		if r.Now() != t0 {
			t.Errorf("hidden async work advanced the clock: %g → %g", t0, r.Now())
		}

		h = r.Async("loader", 0.3)
		r.Compute(0.1) // too short: 0.2 exposed
		t0 = r.Now()
		r.Wait(h)
		if d := r.Now() - t0; !close1e9(d, 0.2) {
			t.Errorf("exposed async time %g, want 0.2", d)
		}

		// Two charges queue on the single background thread: the second
		// starts when the first finishes, not at issue time.
		start := r.Now()
		h1 := r.Async("loader", 0.2)
		h2 := r.Async("loader", 0.2)
		r.Wait(h1)
		r.Wait(h2)
		if d := r.Now() - start; !close1e9(d, 0.4) {
			t.Errorf("queued async charges took %g, want 0.4 (FIFO background thread)", d)
		}
	})
	// Accounting: busy under the label, exposure under Wait.
	stats := runEngines(t, testCfg(1, CCLBackend), func(r *Rank) {
		h := r.Async("loader", 0.3)
		r.Compute(0.1)
		r.Wait(h)
	})
	if b := stats[0].CommBusy["loader"]; !close1e9(b, 0.3) {
		t.Errorf("async busy %g, want 0.3", b)
	}
	if w := stats[0].Wait["loader"]; !close1e9(w, 0.2) {
		t.Errorf("async exposed wait %g, want 0.2", w)
	}
}

func close1e9(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestMPIInterferenceInflatesOverlappedCompute(t *testing.T) {
	stats := runEngines(t, testCfg(2, MPIBackend), func(r *Rank) {
		_, h := sumCollective(r, "ar", 0, 1.0)
		r.Compute(0.5) // overlaps the in-flight allreduce → inflated 1.3×
		r.Wait(h)
	})
	for _, s := range stats {
		if math.Abs(s.Compute-0.65) > 1e-6 {
			t.Fatalf("MPI overlapped compute %g want 0.65", s.Compute)
		}
	}
	// CCL does not inflate.
	stats = runEngines(t, testCfg(2, CCLBackend), func(r *Rank) {
		_, h := sumCollective(r, "ar", 0, 1.0)
		r.Compute(0.5)
		r.Wait(h)
	})
	for _, s := range stats {
		if math.Abs(s.Compute-0.5) > 1e-6 {
			t.Fatalf("CCL overlapped compute %g want 0.5", s.Compute)
		}
	}
}

func TestComputeCores(t *testing.T) {
	runEngines(t, testCfg(1, MPIBackend), func(r *Rank) {
		if r.ComputeCores() != perfmodel.CLX8280.Cores {
			t.Errorf("MPI compute cores %d want all %d", r.ComputeCores(), perfmodel.CLX8280.Cores)
		}
	})
	cfg := testCfg(1, CCLBackend)
	runEngines(t, cfg, func(r *Rank) {
		if r.ComputeCores() != perfmodel.CLX8280.Cores-4 {
			t.Errorf("CCL compute cores %d want %d", r.ComputeCores(), perfmodel.CLX8280.Cores-4)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	runEngines(t, testCfg(4, MPIBackend), func(r *Rank) {
		r.Compute(float64(r.ID) * 0.1)
		r.Barrier()
		if math.Abs(r.Now()-0.3) > 1e-6 {
			t.Errorf("rank %d after barrier at %g want 0.3", r.ID, r.Now())
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []Stats {
		return runEngines(t, testCfg(8, CCLBackend), func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.Compute(0.01 * float64(r.ID+1))
				_, h := sumCollective(r, "a2a", float64(r.ID), 0.02)
				r.Compute(0.005)
				r.Wait(h)
			}
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Compute != b[i].Compute || a[i].TotalWait() != b[i].TotalWait() {
			t.Fatalf("simulation not deterministic at rank %d", i)
		}
	}
}

func TestLeaderRunsExactlyOnce(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var calls int32
		cfg := testCfg(6, MPIBackend)
		cfg.Parallel = parallel
		Run(cfg, func(r *Rank) {
			h := r.Collective("x", nil, nil, func(arg any, p []any, start float64) float64 {
				atomic.AddInt32(&calls, 1)
				return 0.001
			})
			r.Wait(h)
		})
		if calls != 1 {
			t.Fatalf("parallel=%v: leader ran %d times, want 1", parallel, calls)
		}
	}
}

func TestPrepAccounting(t *testing.T) {
	stats := runEngines(t, testCfg(1, MPIBackend), func(r *Rank) {
		r.Prep("alltoall", 0.002)
	})
	if math.Abs(stats[0].Prep["alltoall"]-0.002) > 1e-12 {
		t.Fatal("prep not recorded")
	}
}

func TestSingleRankCollectives(t *testing.T) {
	runEngines(t, testCfg(1, CCLBackend), func(r *Rank) {
		res, h := sumCollective(r, "solo", 7, 0.01)
		r.Wait(h)
		if res != 7 {
			t.Fatalf("single-rank collective result %v", res)
		}
	})
}

func TestConfigValidationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 ranks")
		}
	}()
	Run(Config{Ranks: 0}, func(r *Rank) {})
}

func TestRankPoolsPersistAcrossRuns(t *testing.T) {
	ps := NewPools()
	defer ps.Close()
	cfg := testCfg(2, CCLBackend)
	cfg.Pools = ps
	grab := func() [2]any {
		var got [2]any
		Run(cfg, func(r *Rank) { got[r.ID] = r.Pool() })
		return got
	}
	a, b := grab(), grab()
	for id := range a {
		if a[id] == nil || a[id] != b[id] {
			t.Fatalf("rank %d pool not persistent across runs: %p vs %p", id, a[id], b[id])
		}
	}
	if a[0] == a[1] {
		t.Fatal("ranks must own distinct pools")
	}
}

func TestRankPoolsResizeOnCoreChange(t *testing.T) {
	ps := NewPools()
	defer ps.Close()
	// Worker counts are capped at GOMAXPROCS, so exercise the resize path
	// directly through Get.
	p1 := ps.Get(0, 1)
	if p1.NumWorkers() != 1 {
		t.Fatalf("want 1 worker, got %d", p1.NumWorkers())
	}
	if again := ps.Get(0, 1); again != p1 {
		t.Fatal("same size must return the same pool")
	}
	mx := runtime.GOMAXPROCS(0)
	if mx < 2 {
		return // resize unobservable on a single-proc host
	}
	p2 := ps.Get(0, 2)
	if p2 == p1 {
		t.Fatal("core-count change must rebuild the pool")
	}
	if p2.NumWorkers() != 2 {
		t.Fatalf("want 2 workers, got %d", p2.NumWorkers())
	}
}

func TestTransientPoolsClosedAfterRun(t *testing.T) {
	// With no Config.Pools, Run owns the set and closes it on exit; the
	// rank body can still use its pool during the run.
	var pool *par.Pool
	Run(testCfg(1, MPIBackend), func(r *Rank) {
		pool = r.Pool()
		if pool.Closed() {
			t.Error("transient pool closed during its own run")
		}
		var n atomic.Int32 // the region's chunks run on several workers
		pool.ForN(4, func(tid, lo, hi int) { n.Add(int32(hi - lo)) })
		if n.Load() != 4 {
			t.Errorf("pool region covered %d items, want 4", n.Load())
		}
	})
	if pool == nil {
		t.Fatal("rank had no pool")
	}
	if !pool.Closed() {
		t.Fatal("transient pool set must be closed when Run returns (worker-goroutine leak)")
	}
	// A shared set, by contrast, stays open across Run.
	ps := NewPools()
	defer ps.Close()
	cfg := testCfg(1, MPIBackend)
	cfg.Pools = ps
	Run(cfg, func(r *Rank) { pool = r.Pool() })
	if pool.Closed() {
		t.Fatal("Run must not close a caller-owned Pools set")
	}
}
