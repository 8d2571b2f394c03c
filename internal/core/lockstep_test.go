package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/testenv"
)

// checkEngines is hook 3: run as coroutines taking turns (lockstep) and as
// parallel goroutines, a configuration gives one byte-identical DistResult —
// every per-rank Stats map, every per-label average, every float bit for
// bit, and in functional mode every loss and model.
func checkEngines(t *testing.T, dcs ...DistConfig) {
	t.Helper()
	for _, dc := range dcs {
		if err := dc.Validate(); err != nil {
			t.Fatal(err)
		}
		if lock, par := dc.runOn(false), dc.runOn(true); !reflect.DeepEqual(lock, par) {
			t.Errorf("%s: engines disagree\nlockstep  %+v\ngoroutine %+v", label(dc), lock, par)
		}
	}
}

// TestLockstepEqualsGoroutineEngine holds hook 3 over both samples and over
// every Variant × schedule × flat / bucketed × contention × blocking with
// the loader, the tiered store, checkpoints and per-bucket Auto all on.
func TestLockstepEqualsGoroutineEngine(t *testing.T) {
	t.Parallel() // counts no allocations
	rows := tm.x(axLoader, 2).x(axTier, 1).x(axCheckpoint, 1).x(axAllreduce, 3).
		x(axVariant, paper...).x(axSync).x(axBucket, 0, 2).x(axContention).x(axBlocking)
	checkEngines(t, slices.Concat(rows, timingSample, funcSample).configs()...)
}

// TestIterSecondsBitReproducible: a rank's final clock is rebuilt from its
// accounting as Compute + Σ Wait + Σ Prep, and both sums used to run in Go's
// randomised map order — float addition is not associative, so with enough
// non-zero labels identical runs differed in the last bit or two. Every row
// here, with the loader, the tiered store and checkpoints charging, must
// repeat one bit pattern over 200 runs.
func TestIterSecondsBitReproducible(t *testing.T) {
	t.Parallel() // counts no allocations
	runs := 200
	if testing.Short() || testenv.Race {
		runs = 40 // the race detector keeps state for every coroutine a run starts
	}
	for _, v := range Variants {
		for _, cfg := range []Config{Small, Large} {
			for _, ranks := range []int{4, 8} {
				for _, sync := range []bool{false, true} {
					dc := at(cfg, ranks, loader(LoaderSharded), tiered(64<<20, 0), nIters(3), bucket(0))
					dc.Variant, dc.Sync, dc.seg.ckptEvery, dc.Workspaces = v, sync, 2, NewDistWorkspaces()
					iterBits, commBits := map[uint64]int{}, map[uint64]int{}
					for range runs {
						res := mustRun(dc)
						iterBits[math.Float64bits(res.IterSeconds)]++
						commBits[math.Float64bits(res.TotalCommPerIter())]++
					}
					if len(iterBits) != 1 || len(commBits) != 1 {
						t.Errorf("%s: %d identical runs gave %d IterSeconds and %d TotalCommPerIter bit patterns, want one each: %v %v",
							label(dc), runs, len(iterBits), len(commBits), iterBits, commBits)
					}
				}
			}
		}
	}
}

// mallocs returns the heap allocations one call of fn performs, counted
// process-wide and — unlike testing.AllocsPerRun — with GOMAXPROCS left
// alone. It is the minimum over n calls: a garbage collection that happens
// to start inside one adds a few runtime allocations of its own.
func mallocs(n int, fn func()) uint64 {
	least := ^uint64(0)
	for range n {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestSameAtAnyGOMAXPROCS: timing mode runs on the caller's goroutine alone,
// so neither what it computes nor what it costs may depend on how many cores
// the host offers. At GOMAXPROCS 1, 2 and 8 the Fig. 9 shape (64 ranks, 8
// iterations) and an elastic run through a rank failure must give identical
// results and perform exactly the same number of allocations.
func TestSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pools := cluster.NewPools()
	defer pools.Close()
	dc := simStrong64(8, pools)
	ec := ElasticConfig{Base: simStrong64(8, pools), CheckpointEvery: 3}
	fail := cluster.FaultEvent{Kind: cluster.RankFail, Iter: 5, Rank: 13}
	measure := func() (res *DistResult, er *ElasticResult, allocs [2]uint64) {
		for range 2 { // untimed: the first run at a shape sizes workspaces and slots
			res, er = mustRun(dc), elastic(t, ec, fail)
		}
		return res, er, [2]uint64{mallocs(8, func() { mustRun(dc) }), mallocs(8, func() { elastic(t, ec, fail) })}
	}
	runtime.GOMAXPROCS(1)
	wantRes, wantER, wantAllocs := measure()
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		res, er, allocs := measure()
		if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(er, wantER) {
			t.Errorf("GOMAXPROCS %d: DistResult or ElasticResult differs from GOMAXPROCS 1", procs)
		}
		if !testenv.Race && allocs != wantAllocs { // the race detector perturbs counts
			t.Errorf("GOMAXPROCS %d: %v allocations per Run and per RunElastic, against %v at GOMAXPROCS 1", procs, allocs, wantAllocs)
		}
	}
}

// simStrong64 is the benchmark's sim-strong64 shape (the legacy
// Fig9Strong64R fixture): Large on 64 ranks, CCL alltoall over the pruned
// fat-tree, default bucketed+overlapped schedule, timing mode.
func simStrong64(iters int, pools *cluster.Pools) DistConfig {
	dc := at(Large, 64, defaults, nIters(iters))
	dc.Pools, dc.Workspaces = pools, NewDistWorkspaces()
	return dc
}

// BenchmarkSimStrong64Run times one timing-mode Run of 8 simulated
// iterations: pure simulator overhead, which must not depend on the host's
// core count (run with -cpu 1,2,8; ns/op and allocs/op should agree).
func BenchmarkSimStrong64Run(b *testing.B) {
	pools := cluster.NewPools()
	defer pools.Close()
	dc := simStrong64(8, pools)
	for i := 0; i < 3; i++ {
		mustRun(dc)
	}
	b.ReportAllocs()
	for b.Loop() {
		mustRun(dc)
	}
}
