// Allocation-regression tests for the distributed path, the multi-socket
// mirror of the root alloc_test.go: with per-rank persistent pools and
// DistWorkspaces, a warmed-up timing-mode iteration performs zero heap
// allocations, so simulated-cluster wall time measures the modeled fabric
// and compute, not the Go allocator. A timing run's ranks are advanced
// together on the caller's goroutine (the timing evaluator); a run also
// allocates for its set-up (ranks, stats maps, result assembly), so runs of
// two lengths are differenced and only the steady-state iterations remain.
package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/embedding"
	"repro/internal/par"
	"repro/internal/testenv"
)

// checkZeroAllocs is hook 2, for timing runs: warmed-up runs of 4 and of 6
// iterations allocate the same. Both charge every label a run can (the
// second checkpoint's wait on the first drain comes in iteration 4), so they
// build stats maps of one size.
func checkZeroAllocs(t *testing.T, dcs ...DistConfig) {
	t.Helper()
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	for _, dc := range dcs {
		dc.Pools, dc.Workspaces = pools, NewDistWorkspaces()
		run := func(iters int) func() {
			dc := dc
			dc.Iters = iters
			return func() { mustRun(dc) }
		}
		const short, long = 4, 6
		run(long)() // warm-up: sizes workspaces and rendezvous slots
		a, b := mallocs(1, run(short)), mallocs(1, run(long))
		for try := 1; try < 8 && a != b; try++ { // a collection starting inside a run allocates too
			a, b = min(a, mallocs(1, run(short))), min(b, mallocs(1, run(long)))
		}
		if a != b {
			t.Errorf("%s: %d allocations per run of %d iterations, %d of %d; want equal", label(dc), a, short, b, long)
		}
	}
}

// TestDistributedStepZeroAllocs holds hook 2 over every strategy × backend
// under both schedules, and over the timing sample.
func TestDistributedStepZeroAllocs(t *testing.T) {
	checkZeroAllocs(t, slices.Concat(tm.x(axVariant).x(axSync), timingSample).configs()...)
}

// TestDistributedStepZeroAllocsAllreduceAlgos: the hierarchical, tree and
// per-volume Auto cost models (flow lists live in the engine's one Pricer).
func TestDistributedStepZeroAllocsAllreduceAlgos(t *testing.T) {
	checkZeroAllocs(t, tm.x(axVariant, 3).x(axAllreduce, 1, 2, 3).x(axSync).configs()...)
}

// TestDistributedStepZeroAllocsBucketed: per-bucket issues, layer-stepped
// charges and per-bucket SGD waits, on every variant and cost model.
func TestDistributedStepZeroAllocsBucketed(t *testing.T) {
	b := tm.x(axBucket, 2)
	checkZeroAllocs(t, slices.Concat(b.x(axVariant).x(axSync), b.x(axVariant, 3).x(axSync, 1).x(axAllreduce, 1, 2, 3)).configs()...)
}

// TestDistributedStepZeroAllocsContention: load sets and the flight epoch
// recycle their scratch — also on MPI, whose one channel never contends but
// still runs the charge bracket.
func TestDistributedStepZeroAllocsContention(t *testing.T) {
	c := tm.x(axContention, 1).x(axSync, 1)
	checkZeroAllocs(t, slices.Concat(c.x(axVariant, 3).x(axBucket, 0, 2).x(axAllreduce, 0, 1, 3), c.x(axVariant, 2).x(axBucket, 2)).configs()...)
}

// TestDistributedStepZeroAllocsCheckpointed: a checkpoint is a wait on the
// previous drain plus an Async charge on the background stream.
func TestDistributedStepZeroAllocsCheckpointed(t *testing.T) {
	checkZeroAllocs(t, tm.x(axCheckpoint, 1).x(axVariant, 3).x(axSync).configs()...)
}

// TestDistributedStepZeroAllocsEmbStore: the coldtier fetch, the background
// write-back's wait / Async pair and the analytic hit-rate scalars.
func TestDistributedStepZeroAllocsEmbStore(t *testing.T) {
	checkZeroAllocs(t, tm.x(axTier, 1).x(axVariant, 3).x(axSync).configs()...)
}

// TestDistributedStepZeroAllocsFig9Shape: 64 ranks on the default schedule
// (per-rank pricing scratch used to cost 133 allocations per iteration).
func TestDistributedStepZeroAllocsFig9Shape(t *testing.T) {
	checkZeroAllocs(t, tm.x(axShape, 2).x(axVariant, 3).x(axSync, 1).x(axBucket, 1).configs()...)
}

// checkRunsSettle runs dcs in turn on shared pools and workspaces — two
// rounds to warm up, then two measured — and holds each to one allocation
// count: no per-run buffer regrowth.
func checkRunsSettle(t *testing.T, dcs ...DistConfig) {
	t.Helper()
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	counts := make([]float64, len(dcs))
	for round := range 4 {
		for i, dc := range dcs {
			dc.Pools, dc.Workspaces = pools, wss
			run := func() { mustRun(dc) }
			if round < 2 {
				run()
			} else if n := testing.AllocsPerRun(5, run); round == 3 && n != counts[i] {
				t.Errorf("%s: warmed-up allocations drift: %v then %v", label(dc), counts[i], n)
			} else {
				counts[i] = n
			}
		}
	}
}

// TestDistributedRunReusesWorkspaces: repeated identical runs settle.
func TestDistributedRunReusesWorkspaces(t *testing.T) { checkRunsSettle(t, at(Small, 4, nIters(3))) }

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
// alternating between two shapes must not grow buffers (the ensure helpers
// retain the larger capacity).
func TestDistWorkspaceKeyedReuse(t *testing.T) {
	checkRunsSettle(t, at(Small, 4), at(Small, 8, mpi, strategy(FusedScatter)))
}
