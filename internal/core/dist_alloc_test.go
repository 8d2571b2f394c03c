// Allocation-regression tests for the distributed path, the multi-socket
// mirror of the root alloc_test.go: with per-rank persistent pools and
// DistWorkspaces, a warmed-up timing-mode iteration must perform zero heap
// allocations, so simulated-cluster wall time measures the modeled fabric
// and compute — not the Go allocator. Because an iteration spans all rank
// goroutines, per-iteration allocations are measured by differencing whole
// runs of different lengths (AllocsPerRun counts mallocs process-wide): the
// fixed per-run overhead (goroutines, stats maps, result assembly) cancels
// and only the steady-state per-iteration cost remains.
package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/embedding"
	"repro/internal/par"
	"repro/internal/testenv"
)

// distAllocsPerIter returns the marginal allocations per timing-mode
// iteration for the given variant and pipeline schedule, after warming
// pools and workspaces. bucketBytes > 0 selects the bucketed gradient
// allreduce; FlatBuckets the flat one. contention enables the
// contention-aware fabric charging, whose epoch bookkeeping (flight
// records, load sets) must recycle rather than allocate in steady state.
func distAllocsPerIter(t *testing.T, v Variant, overlap bool, algo comm.AllreduceAlgo, bucketBytes int, contention bool) float64 {
	t.Helper()
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	const ranks = 4
	run := func(iters int) func() {
		dc := distTestConfig(Small, ranks, Small.GlobalMB, iters, v, false)
		dc.Pools = pools
		dc.Workspaces = wss
		dc.Sync = !overlap
		dc.Allreduce = algo
		dc.BucketBytes = bucketBytes
		dc.Contention = contention
		return func() { mustRun(dc) }
	}
	const short, long = 2, 12
	run(long)() // warmup: sizes workspaces, fills slot/sudog pools
	// Collect now so no cycle starts inside a measured run: AllocsPerRun
	// counts process-wide, and a collection (the process's first above all,
	// which starts the mark workers) allocates on its own account.
	runtime.GC()
	aShort := testing.AllocsPerRun(5, run(short))
	aLong := testing.AllocsPerRun(5, run(long))
	return (aLong - aShort) / float64(long-short)
}

// TestDistributedStepZeroAllocs pins the tentpole invariant: steady-state
// timing-mode iterations allocate nothing, for all three communication
// strategies on both backends, under both the synchronous and the
// overlapped pipeline schedule.
func TestDistributedStepZeroAllocs(t *testing.T) {
	for _, strat := range []CommStrategy{ScatterList, FusedScatter, Alltoall} {
		for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
			for _, overlap := range []bool{false, true} {
				v := Variant{Strategy: strat, Backend: backend}
				if got := distAllocsPerIter(t, v, overlap, comm.RingRSAG, FlatBuckets, false); got != 0 {
					t.Errorf("%s overlap=%v: %v allocs per steady-state distributed iteration, want 0",
						v.Name(), overlap, got)
				}
			}
		}
	}
}

// TestDistributedStepZeroAllocsAllreduceAlgos extends the invariant to the
// selectable allreduce algorithms: the hierarchical two-level and the
// NCCL-style binary-tree cost models must stay allocation-free in steady
// state too (their flow lists live in the engine's one Pricer).
func TestDistributedStepZeroAllocsAllreduceAlgos(t *testing.T) {
	v := Variant{Strategy: Alltoall, Backend: cluster.CCLBackend}
	for _, algo := range []comm.AllreduceAlgo{comm.Hierarchical, comm.BinaryTree, comm.AllreduceAuto} {
		for _, overlap := range []bool{false, true} {
			if got := distAllocsPerIter(t, v, overlap, algo, FlatBuckets, false); got != 0 {
				t.Errorf("%s %v overlap=%v: %v allocs per steady-state iteration, want 0",
					v.Name(), algo, overlap, got)
			}
		}
	}
}

// TestDistributedStepZeroAllocsBucketed extends the invariant to the
// bucketed gradient-allreduce schedule: the per-bucket issue loop, the
// layer-stepped charges, and the per-bucket SGD waits must add no
// steady-state allocations either — the bucket plans and issue state live
// in the rank's DistWorkspace — for every strategy on both backends under
// both schedules, and for the selectable cost models.
func TestDistributedStepZeroAllocsBucketed(t *testing.T) {
	const bucketBytes = 1 << 20
	for _, strat := range []CommStrategy{ScatterList, FusedScatter, Alltoall} {
		for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
			for _, overlap := range []bool{false, true} {
				v := Variant{Strategy: strat, Backend: backend}
				if got := distAllocsPerIter(t, v, overlap, comm.RingRSAG, bucketBytes, false); got != 0 {
					t.Errorf("%s overlap=%v bucketed: %v allocs per steady-state iteration, want 0",
						v.Name(), overlap, got)
				}
			}
		}
	}
	v := Variant{Strategy: Alltoall, Backend: cluster.CCLBackend}
	for _, algo := range []comm.AllreduceAlgo{comm.Hierarchical, comm.BinaryTree, comm.AllreduceAuto} {
		if got := distAllocsPerIter(t, v, true, algo, bucketBytes, false); got != 0 {
			t.Errorf("%s %v bucketed: %v allocs per steady-state iteration, want 0", v.Name(), algo, got)
		}
	}
}

// TestDistributedStepZeroAllocsContention extends the invariant to the
// contention-aware charging path: with the knob on, the per-collective
// load accumulation and the engine's flight epoch run through recycled
// scratch (LoadSet slices, the flight free list), so steady-state timing
// iterations must still allocate nothing — for the overlapped schedules
// that actually contend, flat and bucketed, across the cost models.
func TestDistributedStepZeroAllocsContention(t *testing.T) {
	v := Variant{Strategy: Alltoall, Backend: cluster.CCLBackend}
	for _, bucketBytes := range []int{FlatBuckets, 1 << 20} {
		for _, algo := range []comm.AllreduceAlgo{comm.RingRSAG, comm.Hierarchical, comm.AllreduceAuto} {
			if got := distAllocsPerIter(t, v, true, algo, bucketBytes, true); got != 0 {
				t.Errorf("%s %v bucket=%d contention: %v allocs per steady-state iteration, want 0",
					v.Name(), algo, bucketBytes, got)
			}
		}
	}
	// The MPI backend routes everything through one channel — contention
	// never fires — but the charge bracket still runs; it too must be free.
	mpi := Variant{Strategy: Alltoall, Backend: cluster.MPIBackend}
	if got := distAllocsPerIter(t, mpi, true, comm.RingRSAG, 1<<20, true); got != 0 {
		t.Errorf("%s contention: %v allocs per steady-state iteration, want 0", mpi.Name(), got)
	}
}

// TestDistributedRunReusesWorkspaces checks the cross-run half of the
// reuse story: with shared Pools and DistWorkspaces, repeated identical
// runs settle to a constant allocation count (no per-run buffer regrowth).
func TestDistributedRunReusesWorkspaces(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	dc := distTestConfig(Small, 4, Small.GlobalMB, 3, Variant{Alltoall, cluster.CCLBackend}, false)
	dc.Pools = pools
	dc.Workspaces = wss
	run := func() { mustRun(dc) }
	run()
	a := testing.AllocsPerRun(5, run)
	b := testing.AllocsPerRun(5, run)
	if a != b {
		t.Errorf("warmed-up run allocations drift: %v then %v", a, b)
	}
}

// TestEmbeddingStrategyAllocExemption documents and pins the one sanctioned
// steady-state allocator: the Reference embedding-update strategy, which
// reproduces the paper's pre-optimization framework path (Fig. 7's slow
// bar) by materializing a dense M×E scatter buffer every call. It MUST
// allocate — if someone "fixes" it the baseline bar loses its meaning —
// while every optimized strategy must stay at zero.
func TestEmbeddingStrategyAllocExemption(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(11))
	tab := embedding.NewTable(5_000, 16, rng, 0.01)
	batch := embedding.MakeBatch(rng, embedding.Uniform{}, 128, 4, tab.M)
	dW := make([]float32, batch.NumLookups()*tab.E)
	for _, strat := range embedding.Strategies {
		upd := func() { tab.Update(par.Default, strat, batch, dW, 1e-7) }
		upd()
		upd()
		allocs := testing.AllocsPerRun(10, upd)
		if strat == embedding.Reference {
			if allocs == 0 {
				t.Error("Reference must allocate its dense scatter buffer: it models the unoptimized framework path")
			}
			continue
		}
		if allocs != 0 {
			t.Errorf("%v: %v allocs per steady-state update, want 0 (only Reference is exempt)", strat, allocs)
		}
	}
}

// TestDistWorkspaceKeyedReuse checks the (ranks, shardN, variant) keying:
// alternating between two shapes after warmup must not grow buffers (the
// ensure helpers retain the larger capacity).
func TestDistWorkspaceKeyedReuse(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	mk := func(ranks int, v Variant) func() {
		dc := distTestConfig(Small, ranks, Small.GlobalMB, 2, v, false)
		dc.Pools = pools
		dc.Workspaces = wss
		return func() { mustRun(dc) }
	}
	a := mk(4, Variant{Alltoall, cluster.CCLBackend})
	b := mk(8, Variant{FusedScatter, cluster.MPIBackend})
	a()
	b()
	a()
	b()
	a1 := testing.AllocsPerRun(5, a)
	b1 := testing.AllocsPerRun(5, b)
	a2 := testing.AllocsPerRun(5, a)
	b2 := testing.AllocsPerRun(5, b)
	if a1 != a2 || b1 != b2 {
		t.Errorf("alternating shapes regrow buffers: %v/%v then %v/%v", a1, b1, a2, b2)
	}
}

// TestDistributedStepZeroAllocsCheckpointed extends the invariant to the
// shard-checkpoint cadence: in timing mode a checkpoint is one wait on the
// previous drain plus one Async charge on the rank's background stream per
// cadence, both of which must recycle through the per-rank pools — a
// checkpoint every iteration adds no steady-state allocations under either
// schedule.
func TestDistributedStepZeroAllocsCheckpointed(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	v := Variant{Strategy: Alltoall, Backend: cluster.CCLBackend}
	for _, overlap := range []bool{false, true} {
		pools := cluster.NewPools()
		wss := NewDistWorkspaces()
		const ranks = 4
		run := func(iters int) func() {
			dc := distTestConfig(Small, ranks, Small.GlobalMB, iters, v, false)
			dc.Pools = pools
			dc.Workspaces = wss
			dc.Sync = !overlap
			dc.BucketBytes = FlatBuckets
			dc.CheckpointEvery = 1
			return func() { mustRun(dc) }
		}
		const short, long = 2, 12
		run(long)() // warmup: sizes workspaces, fills slot/sudog pools
		aShort := testing.AllocsPerRun(5, run(short))
		aLong := testing.AllocsPerRun(5, run(long))
		if got := (aLong - aShort) / float64(long-short); got != 0 {
			t.Errorf("overlap=%v checkpointed: %v allocs per steady-state iteration, want 0", overlap, got)
		}
		pools.Close()
	}
}
