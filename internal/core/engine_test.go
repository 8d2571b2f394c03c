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

// checkEngines is hook 3: a timing configuration gives one byte-identical
// DistResult — every per-label average, every float bit for bit — from the
// timing evaluator (every rank at once, step by step) and from every rank
// interpreting the plan on cluster.Run's goroutines. A functional
// configuration, which only the goroutines run, must give the same result
// twice, every loss and model included.
func checkEngines(t *testing.T, dcs ...DistConfig) {
	t.Helper()
	for _, dc := range dcs {
		if err := dc.Validate(); err != nil {
			t.Fatal(err)
		}
		ref, got := dc.runOn(false), dc.runOn(dc.RunCfg == nil)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: engines disagree\nevaluator %+v\ngoroutine %+v", label(dc), got, ref)
		}
	}
}

// checkElasticEngines is hook 3 over an elastic timing run: every segment
// RunElastic evaluated — its shape, start iteration and checkpoint cadence
// set by the fault plan — equals the same segment on the goroutine engine.
func checkElasticEngines(t *testing.T, ec ElasticConfig, events ...cluster.FaultEvent) {
	t.Helper()
	er := elastic(t, ec, events...)
	if len(er.Segments) != len(events)+1 {
		t.Fatalf("%s: %d segments for %d events", label(ec.Base), len(er.Segments), len(events))
	}
	for i, sg := range er.Segments {
		dc := ec.Base
		dc.Ranks, dc.Iters, dc.GlobalN = sg.Ranks, sg.Iters, dc.GlobalN-dc.GlobalN%sg.Ranks
		dc.seg = segment{startIter: sg.StartIter, ckptEvery: ec.CheckpointEvery}
		if ref := dc.runOn(false); !reflect.DeepEqual(sg.Res, ref) {
			t.Errorf("%s: elastic segment %d disagrees\nevaluator %+v\ngoroutine %+v", label(dc), i, sg.Res, ref)
		}
	}
}

// engineRows are hook 3's hand-written timing rows: every Variant ×
// schedule × flat / bucketed × blocking with the loader, the tiered store,
// checkpoints and per-bucket Auto all on, and the CCL variant's with
// contention off and on. The MPI variants run contention off only: their
// one in-order channel never has two collectives in flight, so contention
// prices them as without (TestContentionFreeUnderMPI).
var engineRows = slices.Concat(
	engineBase.x(axVariant, paper[:3]...).x(axSync).x(axBucket, 0, 2).x(axBlocking),
	engineBase.x(axVariant, paper[3]).x(axSync).x(axBucket, 0, 2).x(axContention).x(axBlocking))

var engineBase = tm.x(axLoader, 2).x(axTier, 1).x(axCheckpoint, 1).x(axAllreduce, 3)

// elasticCase is one elastic timing run: a configuration and its fault plan.
type elasticCase struct {
	ec     ElasticConfig
	events []cluster.FaultEvent
}

// elasticCases are the benchmark's churn case and the timing sample through
// failures at the first or second boundary and a rescale.
func elasticCases() []elasticCase {
	cases := []elasticCase{{ElasticConfig{Base: simStrong64(8), CheckpointEvery: 3},
		[]cluster.FaultEvent{{Kind: cluster.RankFail, Iter: 5, Rank: 13}}}}
	for i, dc := range timingSample.configs() {
		dc.seg = segment{}
		cases = append(cases, elasticCase{ElasticConfig{Base: dc, CheckpointEvery: 1 + i%3}, []cluster.FaultEvent{
			{Kind: cluster.RankFail, Iter: 1 + i%2, Rank: i % dc.Ranks},
			{Kind: cluster.Rescale, Iter: 3, NewRanks: 2}}})
	}
	return cases
}

// TestEvaluatorEqualsGoroutineEngine holds hook 3 over both samples, over
// engineRows and over elasticCases.
func TestEvaluatorEqualsGoroutineEngine(t *testing.T) {
	t.Parallel() // counts no allocations
	checkEngines(t, slices.Concat(engineRows, timingSample, funcSample).configs()...)
	for _, c := range elasticCases() {
		checkElasticEngines(t, c.ec, c.events...)
	}
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
		runs = 40 // the race detector slows every charge down
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

// mallocs returns the heap allocations one call of fn performs (see heap).
func mallocs(n int, fn func()) uint64 {
	objects, _ := heap(n, fn)
	return objects
}

// heap returns the heap objects and bytes one call of fn allocates, counted
// process-wide and — unlike testing.AllocsPerRun — with GOMAXPROCS left
// alone. Each is the minimum over n calls: a garbage collection that happens
// to start inside one adds a few runtime allocations of its own.
func heap(n int, fn func()) (objects, bytes uint64) {
	objects, bytes = ^uint64(0), ^uint64(0)
	for range n {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestSimStrong64HeapBudget: a timing Run at the sim-strong64 shape (64
// ranks, 8 iterations, warm workspaces) allocates at most 70 objects and
// 51 000 bytes (66 and 44 824 measured): the plan, the ranks and the
// result, every rank's accounting booked into the tallies the workspaces
// keep. The budget matters beyond the allocator: the benchmark keeps every
// op of its window, so a cheaper Run means more ops and more of their
// garbage in the same seconds, which is what peak_rss_mb on sim-strong64 reads
// (docs/PERF.md, "The timing evaluator").
func TestSimStrong64HeapBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const maxObjects, maxBytes = 70, 51000
	dc := simStrong64(8)
	for range 3 {
		mustRun(dc)
	}
	objects, bytes := heap(8, func() { mustRun(dc) })
	t.Logf("per Run: %d objects, %d bytes", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a Run allocates %d objects and %d bytes, budget %d and %d", objects, bytes, maxObjects, maxBytes)
	}
}

// TestSameAtAnyGOMAXPROCS: timing mode runs on the caller's goroutine alone,
// so neither what it computes nor what it costs may depend on how many cores
// the host offers. At GOMAXPROCS 1, 2 and 8 the Fig. 9 shape (64 ranks, 8
// iterations) and an elastic run through a rank failure must give identical
// results and perform exactly the same number of allocations.
func TestSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dc := simStrong64(8)
	ec := ElasticConfig{Base: simStrong64(8), CheckpointEvery: 3}
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
func simStrong64(iters int) DistConfig {
	dc := at(Large, 64, defaults, nIters(iters))
	dc.Workspaces = NewDistWorkspaces()
	return dc
}

// BenchmarkSimStrong64Run times one timing-mode Run of 8 simulated
// iterations: pure simulator overhead, which must not depend on the host's
// core count (run with -cpu 1,2,8; ns/op and allocs/op should agree).
func BenchmarkSimStrong64Run(b *testing.B) {
	dc := simStrong64(8)
	for i := 0; i < 3; i++ {
		mustRun(dc)
	}
	b.ReportAllocs()
	for b.Loop() {
		mustRun(dc)
	}
}
