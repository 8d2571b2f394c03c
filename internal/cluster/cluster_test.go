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

// sumCollective issues the test collective, books its busy time in l, and
// returns the reduced value.
func sumCollective(r *Rank, l *ledger, label string, v, dur float64) (float64, Handle) {
	x := &sumXchg{v: v, dur: dur}
	h := l.issued(label, r.Collective(label, x, x, sumLead))
	return x.v, h
}

func TestCollectiveMovesData(t *testing.T) {
	stats := runTwice(t, testCfg(4, MPIBackend), func(r *Rank, l *ledger) {
		res, h := sumCollective(r, l, "sum", float64(r.ID+1), 0.001)
		l.wait(r, "sum", h)
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
	stats := runTwice(t, testCfg(2, CCLBackend), func(r *Rank, l *ledger) {
		l.compute(r, 0.5)
		_, h := sumCollective(r, l, "op", 0, 0.25)
		l.wait(r, "op", h)
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
	runTwice(t, testCfg(3, CCLBackend), func(r *Rank, l *ledger) {
		l.compute(r, float64(r.ID)*0.1) // rank 2 arrives at 0.2
		_, h := sumCollective(r, l, "op", 0, 0.05)
		l.wait(r, "op", h)
		want := 0.25
		if math.Abs(r.Now()-want) > 1e-6 {
			t.Errorf("rank %d finishes at %g want %g", r.ID, r.Now(), want)
		}
	})
}

func TestOverlapHidesCommunication(t *testing.T) {
	// Enqueue a 0.2s collective, compute 0.3s, then wait: exposed wait ≈ 0.
	stats := runTwice(t, testCfg(2, CCLBackend), func(r *Rank, l *ledger) {
		_, h := sumCollective(r, l, "ar", 0, 0.2)
		l.compute(r, 0.3)
		l.wait(r, "ar", h)
	})
	for _, s := range stats {
		if s.Wait["ar"] > 1e-6 {
			t.Fatalf("overlapped wait should be ~0, got %g", s.Wait["ar"])
		}
	}
	// Waiting where the collective is issued (a blocking schedule) exposes
	// the full communication.
	stats = runTwice(t, testCfg(2, CCLBackend), func(r *Rank, l *ledger) {
		_, h := sumCollective(r, l, "ar", 0, 0.2)
		l.wait(r, "ar", h)
		l.compute(r, 0.3)
		if w := r.Wait(h); w != 0 {
			t.Errorf("a second wait on one handle stalled %g", w)
		}
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
	stats := runTwice(t, testCfg(2, MPIBackend), func(r *Rank, l *ledger) {
		_, h1 := sumCollective(r, l, "allreduce", 0, 0.4)
		_, h2 := sumCollective(r, l, "alltoall", 0, 0.1)
		l.wait(r, "alltoall", h2) // only waits the alltoall handle
		l.wait(r, "allreduce", h1)
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
	stats := runTwice(t, cfg, func(r *Rank, l *ledger) {
		_, h1 := sumCollective(r, l, "allreduce", 0, 0.4)
		_, h2 := sumCollective(r, l, "alltoall", 0, 0.1)
		l.wait(r, "alltoall", h2)
		l.wait(r, "allreduce", h1)
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
	pinned := runTwice(t, cfg, func(r *Rank, l *ledger) {
		x1 := &sumXchg{dur: 0.4}
		h1 := l.issued("redist", r.CollectiveOn("redist", 0, x1, x1, sumLead))
		x2 := &sumXchg{dur: 0.4}
		h2 := l.issued("redist", r.CollectiveOn("redist", 1, x2, x2, sumLead))
		l.wait(r, "redist", h1)
		l.wait(r, "redist", h2)
	})
	hashed := runTwice(t, cfg, func(r *Rank, l *ledger) {
		_, h1 := sumCollective(r, l, "redist", 0, 0.4)
		_, h2 := sumCollective(r, l, "redist", 0, 0.4)
		l.wait(r, "redist", h1)
		l.wait(r, "redist", h2)
	})
	for i := range pinned {
		pw, hw := pinned[i].totalWait(), hashed[i].totalWait()
		if pw >= hw {
			t.Fatalf("rank %d: pinned channels wait %g must beat same-channel FIFO %g", i, pw, hw)
		}
	}
	// MPI has a single channel: a hint must not change anything.
	mpi := runTwice(t, testCfg(2, MPIBackend), func(r *Rank, l *ledger) {
		x1 := &sumXchg{dur: 0.4}
		h1 := l.issued("redist", r.CollectiveOn("redist", 0, x1, x1, sumLead))
		x2 := &sumXchg{dur: 0.4}
		h2 := l.issued("redist", r.CollectiveOn("redist", 3, x2, x2, sumLead))
		l.wait(r, "redist", h1)
		l.wait(r, "redist", h2)
	})
	for i := range mpi {
		if mpi[i].totalWait() < 0.79 {
			t.Fatalf("rank %d: MPI must serialize regardless of channel hints (wait %g)", i, mpi[i].totalWait())
		}
	}
}

func TestAsyncBackgroundCharge(t *testing.T) {
	// Async work is hidden behind compute issued before its Wait, exposed
	// only when compute is too short, and FIFO on its one background thread.
	runTwice(t, testCfg(1, CCLBackend), func(r *Rank, _ *ledger) {
		h := r.Async(0.3)
		r.Compute(0.5) // longer than the prefetch: fully hidden
		t0 := r.Now()
		r.Wait(h)
		if r.Now() != t0 {
			t.Errorf("hidden async work advanced the clock: %g → %g", t0, r.Now())
		}

		h = r.Async(0.3)
		r.Compute(0.1) // too short: 0.2 exposed
		t0 = r.Now()
		r.Wait(h)
		if d := r.Now() - t0; !close1e9(d, 0.2) {
			t.Errorf("exposed async time %g, want 0.2", d)
		}

		// Two charges queue on the single background thread: the second
		// starts when the first finishes, not at issue time.
		start := r.Now()
		h1 := r.Async(0.2)
		h2 := r.Async(0.2)
		r.Wait(h1)
		r.Wait(h2)
		if d := r.Now() - start; !close1e9(d, 0.4) {
			t.Errorf("queued async charges took %g, want 0.4 (FIFO background thread)", d)
		}
	})
	// Accounting: busy on the handle, exposure returned by Wait.
	stats := runTwice(t, testCfg(1, CCLBackend), func(r *Rank, l *ledger) {
		h := l.issued("loader", r.Async(0.3))
		l.compute(r, 0.1)
		l.wait(r, "loader", h)
	})
	if b := stats[0].Busy["loader"]; !close1e9(b, 0.3) {
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
	stats := runTwice(t, testCfg(2, MPIBackend), func(r *Rank, l *ledger) {
		_, h := sumCollective(r, l, "ar", 0, 1.0)
		l.compute(r, 0.5) // overlaps the in-flight allreduce → inflated 1.3×
		l.wait(r, "ar", h)
	})
	for _, s := range stats {
		if math.Abs(s.Compute-0.65) > 1e-6 {
			t.Fatalf("MPI overlapped compute %g want 0.65", s.Compute)
		}
	}
	// CCL does not inflate.
	stats = runTwice(t, testCfg(2, CCLBackend), func(r *Rank, l *ledger) {
		_, h := sumCollective(r, l, "ar", 0, 1.0)
		l.compute(r, 0.5)
		l.wait(r, "ar", h)
	})
	for _, s := range stats {
		if math.Abs(s.Compute-0.5) > 1e-6 {
			t.Fatalf("CCL overlapped compute %g want 0.5", s.Compute)
		}
	}
}

func TestComputeCores(t *testing.T) {
	runTwice(t, testCfg(1, MPIBackend), func(r *Rank, _ *ledger) {
		if r.ComputeCores() != perfmodel.CLX8280.Cores {
			t.Errorf("MPI compute cores %d want all %d", r.ComputeCores(), perfmodel.CLX8280.Cores)
		}
	})
	cfg := testCfg(1, CCLBackend)
	runTwice(t, cfg, func(r *Rank, _ *ledger) {
		if r.ComputeCores() != perfmodel.CLX8280.Cores-4 {
			t.Errorf("CCL compute cores %d want %d", r.ComputeCores(), perfmodel.CLX8280.Cores-4)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	runTwice(t, testCfg(4, MPIBackend), func(r *Rank, _ *ledger) {
		r.Compute(float64(r.ID) * 0.1)
		r.Barrier()
		if math.Abs(r.Now()-0.3) > 1e-6 {
			t.Errorf("rank %d after barrier at %g want 0.3", r.ID, r.Now())
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []ledger {
		return runTwice(t, testCfg(8, CCLBackend), func(r *Rank, l *ledger) {
			for i := 0; i < 5; i++ {
				l.compute(r, 0.01*float64(r.ID+1))
				_, h := sumCollective(r, l, "a2a", float64(r.ID), 0.02)
				l.compute(r, 0.005)
				l.wait(r, "a2a", h)
			}
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Compute != b[i].Compute || a[i].totalWait() != b[i].totalWait() {
			t.Fatalf("simulation not deterministic at rank %d", i)
		}
	}
}

func TestLeaderRunsExactlyOnce(t *testing.T) {
	var calls int32
	Run(testCfg(6, MPIBackend), func(r *Rank) {
		h := r.Collective("x", nil, nil, func(arg any, p []any, start float64) float64 {
			atomic.AddInt32(&calls, 1)
			return 0.001
		})
		r.Wait(h)
	})
	if calls != 1 {
		t.Fatalf("leader ran %d times, want 1", calls)
	}
}

func TestPrepAccounting(t *testing.T) {
	stats := runTwice(t, testCfg(1, MPIBackend), func(r *Rank, _ *ledger) {
		r.Prep(0.002)
	})
	if math.Abs(stats[0].Now-0.002) > 1e-12 {
		t.Fatal("prep not charged")
	}
}

func TestSingleRankCollectives(t *testing.T) {
	runTwice(t, testCfg(1, CCLBackend), func(r *Rank, l *ledger) {
		res, h := sumCollective(r, l, "solo", 7, 0.01)
		l.wait(r, "solo", h)
		if res != 7 {
			t.Errorf("single-rank collective result %v", res)
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

// TestHandleChannelResolution pins the Handle.Channel contract: resolved
// CCL channel (hint mod CCLChannels), 0 under MPI's single channel, -1 for
// the Async background stream.
func TestHandleChannelResolution(t *testing.T) {
	cfg := testCfg(2, CCLBackend)
	runTwice(t, cfg, func(r *Rank, _ *ledger) {
		x := &sumXchg{dur: 0.01}
		if h := r.CollectiveOn("op", 2, x, x, sumLead); h.Channel != 2 {
			t.Errorf("pinned channel 2 resolved to %d", h.Channel)
		}
		y := &sumXchg{dur: 0.01}
		if h := r.CollectiveOn("op", 6, y, y, sumLead); h.Channel != 2 {
			t.Errorf("channel hint 6 mod 4 should resolve to 2, got %d", h.Channel)
		}
		z := &sumXchg{dur: 0.01}
		if h := r.Collective("op", z, z, sumLead); h.Channel < 0 || h.Channel >= 4 {
			t.Errorf("label-hash channel %d outside [0,4)", h.Channel)
		}
		if h := r.Async(0.01); h.Channel != -1 {
			t.Errorf("async channel %d, want -1", h.Channel)
		}
	})
	runTwice(t, testCfg(2, MPIBackend), func(r *Rank, _ *ledger) {
		x := &sumXchg{dur: 0.01}
		if h := r.CollectiveOn("op", 3, x, x, sumLead); h.Channel != 0 {
			t.Errorf("MPI drops hints and has one channel; resolved to %d", h.Channel)
		}
	})
}

// TestContentionOffIdenticalPricing: the engine never reads the contention
// knob — comm's leaders do — so for leaders that do not read it either, a
// Run with Contention on charges exactly what one with it off does, for
// overlapped multi-channel traffic.
func TestContentionOffIdenticalPricing(t *testing.T) {
	run := func(cont bool) []ledger {
		cfg := testCfg(2, CCLBackend)
		cfg.Contention = cont
		return runTwice(t, cfg, func(r *Rank, l *ledger) {
			x1 := &sumXchg{dur: 0.4}
			h1 := l.issued("a", r.CollectiveOn("a", 0, x1, x1, sumLead))
			x2 := &sumXchg{dur: 0.3}
			h2 := l.issued("b", r.CollectiveOn("b", 1, x2, x2, sumLead))
			l.wait(r, "a", h1)
			l.wait(r, "b", h2)
		})
	}
	off, on := run(false), run(true)
	for i := range off {
		if off[i].totalWait() != on[i].totalWait() {
			t.Fatalf("rank %d: off %g vs on %g", i, off[i].totalWait(), on[i].totalWait())
		}
	}
}
