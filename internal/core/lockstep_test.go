package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
	"repro/internal/testenv"
)

// timingConfig is a timing-mode run with every optional charge switched on —
// sharded loader, tiered embedding store, periodic checkpoints — so each
// rank's clock is a sum over many labels.
func timingConfig(cfg Config, ranks int, v Variant) DistConfig {
	return DistConfig{
		Cfg: cfg, Ranks: ranks, GlobalN: cfg.GlobalMB, Iters: 3, Variant: v,
		Topo: fabric.NewPrunedFatTree(ranks, 12.5e9), Socket: perfmodel.CLX8280,
		Loader: LoaderSharded, EmbCacheBytes: 64 << 20, ColdTierBW: DefaultColdTierBW,
		CheckpointEvery: 2,
	}
}

// TestLockstepEqualsGoroutineEngine holds the two cluster engines to one
// simulator: the same timing-mode configuration run as coroutines taking
// turns and as parallel goroutines must give a byte-identical DistResult —
// every per-rank Stats map, every per-label average, every float bit for
// bit — across the four variants, both schedules, flat and bucketed
// allreduce (with per-bucket algorithm selection), isolated and contended
// pricing, deferred and blocking waits.
func TestLockstepEqualsGoroutineEngine(t *testing.T) {
	for _, v := range Variants {
		for _, sync := range []bool{false, true} {
			for _, bucket := range []int{FlatBuckets, 1 << 20} {
				for _, contention := range []bool{false, true} {
					for _, blocking := range []bool{false, true} {
						dc := timingConfig(Small, 8, v)
						dc.Sync, dc.BucketBytes, dc.Contention, dc.Blocking = sync, bucket, contention, blocking
						dc.Allreduce = comm.AllreduceAuto
						if err := dc.Validate(); err != nil {
							t.Fatal(err)
						}
						lock, par := dc.runOn(false), dc.runOn(true)
						if !reflect.DeepEqual(lock, par) {
							t.Errorf("%s sync=%v bucket=%d contention=%v blocking=%v: engines disagree\nlockstep  %+v\ngoroutine %+v",
								v.Name(), sync, bucket, contention, blocking, lock, par)
						}
					}
				}
			}
		}
	}
}

// TestIterSecondsBitReproducible: a rank's final clock is rebuilt from its
// accounting as Compute + Σ Wait + Σ Prep, and both sums used to run in Go's
// randomised map order — float addition is not associative, so with enough
// non-zero labels identical runs differed in the last bit or two. Every row
// here must repeat one bit pattern over 200 runs.
func TestIterSecondsBitReproducible(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 40
	}
	for _, v := range Variants {
		for _, cfg := range []Config{Small, Large} {
			for _, ranks := range []int{4, 8} {
				for _, sync := range []bool{false, true} {
					dc := timingConfig(cfg, ranks, v)
					dc.Sync = sync
					dc.Workspaces = NewDistWorkspaces()
					iterBits, commBits := map[uint64]int{}, map[uint64]int{}
					for i := 0; i < runs; i++ {
						res, err := dc.Run()
						if err != nil {
							t.Fatal(err)
						}
						iterBits[math.Float64bits(res.IterSeconds)]++
						commBits[math.Float64bits(res.TotalCommPerIter())]++
					}
					if len(iterBits) != 1 || len(commBits) != 1 {
						t.Errorf("%s %s %dR sync=%v: %d identical runs gave %d IterSeconds and %d TotalCommPerIter bit patterns, want one each: %v %v",
							v.Name(), cfg.Name, ranks, sync, runs, len(iterBits), len(commBits), iterBits, commBits)
					}
				}
			}
		}
	}
}

// mallocs returns the heap allocations one call of fn performs, counted
// process-wide and — unlike testing.AllocsPerRun — with GOMAXPROCS left
// alone. It is the minimum over several calls: a garbage collection that
// happens to start inside one adds a few runtime allocations of its own.
func mallocs(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 8; i++ {
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
	ec := ElasticConfig{
		Base:            simStrong64(8, pools),
		Plan:            &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.RankFail, Iter: 5, Rank: 13}}},
		CheckpointEvery: 3,
	}
	type outcome struct {
		res        *DistResult
		er         *ElasticResult
		runAllocs  uint64
		churnAlloc uint64
	}
	measure := func() (o outcome) {
		var err error
		// Twice untimed: the first run at a shape sizes workspaces and slots.
		for i := 0; i < 2; i++ {
			if o.res, err = dc.Run(); err != nil {
				t.Fatal(err)
			}
			if o.er, err = RunElastic(ec); err != nil {
				t.Fatal(err)
			}
		}
		o.runAllocs = mallocs(func() { _, _ = dc.Run() })
		o.churnAlloc = mallocs(func() { _, _ = RunElastic(ec) })
		return o
	}
	runtime.GOMAXPROCS(1)
	want := measure()
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := measure()
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("GOMAXPROCS %d: DistResult differs from GOMAXPROCS 1", procs)
		}
		if !reflect.DeepEqual(got.er, want.er) {
			t.Errorf("GOMAXPROCS %d: ElasticResult differs from GOMAXPROCS 1", procs)
		}
		if testenv.Race {
			continue // allocation counts are perturbed by the race detector
		}
		if got.runAllocs != want.runAllocs || got.churnAlloc != want.churnAlloc {
			t.Errorf("GOMAXPROCS %d: %d allocations per Run and %d per RunElastic, against %d and %d at GOMAXPROCS 1",
				procs, got.runAllocs, got.churnAlloc, want.runAllocs, want.churnAlloc)
		}
	}
}

// TestDistributedStepZeroAllocsFig9Shape extends the zero-allocation
// invariant to the scale the figures run at: 64 ranks, default
// bucketed+overlapped schedule. With one pricer per engine — one flow list,
// one link-load scratch, one memo, whichever rank leads — runs of 1 and of 9
// iterations allocate exactly the same (per-rank pricing scratch used to
// cost 133 allocations per simulated iteration here).
func TestDistributedStepZeroAllocsFig9Shape(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	one, nine := simStrong64(1, pools), simStrong64(9, pools)
	nine.Workspaces = one.Workspaces
	mustRun(nine) // warm-up: sizes workspaces and rendezvous slots
	a1 := mallocs(func() { mustRun(one) })
	a9 := mallocs(func() { mustRun(nine) })
	if a1 != a9 {
		t.Errorf("%d allocations for a 1-iteration run, %d for 9 iterations: %.1f per steady-state iteration, want 0",
			a1, a9, (float64(a9)-float64(a1))/8)
	}
}
