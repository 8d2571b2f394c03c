package core

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/fabric"
)

// The ordering table: a row says one setting beats another on a metric
// over base configurations — a figure's point, or the timing sample, which
// makes the row a metamorphic law. A test states its rows by name.

// at is distTestConfig's two-iteration timing run of cfg on ranks over its
// global minibatch — CCL alltoall, flat sync — with set applied in order.
func at(cfg Config, ranks int, set ...func(*DistConfig)) DistConfig {
	dc := distTestConfig(cfg, ranks, cfg.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
	for _, s := range set {
		s(&dc)
	}
	return dc
}

// Settings.
var (
	mpi         = func(dc *DistConfig) { dc.Variant.Backend = cluster.MPIBackend }
	overlap     = func(dc *DistConfig) { dc.Sync = false }
	flatSync    = func(dc *DistConfig) { dc.Sync, dc.BucketBytes = true, FlatBuckets }
	defaults    = func(dc *DistConfig) { dc.Sync, dc.BucketBytes = false, 0 } // every schedule knob at its zero value
	blocking    = func(dc *DistConfig) { dc.Blocking = true }
	contended   = func(dc *DistConfig) { dc.Contention = true }
	uncontended = func(dc *DistConfig) { dc.Contention = false }
	weak        = func(dc *DistConfig) { dc.GlobalN = dc.Cfg.LocalMB * dc.Ranks }
	untiered    = func(dc *DistConfig) { dc.EmbCacheBytes, dc.ColdTierBW, dc.EmbSkew = 0, 0, 0 }
	// degraded derates socket 2's uplink to a tenth.
	degraded = func(dc *DistConfig) { dc.Topo = fabric.NewDegraded(dc.Topo, map[int]float64{2: 0.1}) }
)

func all(set ...func(*DistConfig)) func(*DistConfig) {
	return func(dc *DistConfig) {
		for _, s := range set {
			s(dc)
		}
	}
}
func strategy(s CommStrategy) func(*DistConfig) {
	return func(dc *DistConfig) { dc.Variant.Strategy = s }
}
func bucket(n int) func(*DistConfig)              { return func(dc *DistConfig) { dc.BucketBytes = n } }
func loader(m LoaderMode) func(*DistConfig)       { return func(dc *DistConfig) { dc.Loader = m } }
func nIters(n int) func(*DistConfig)              { return func(dc *DistConfig) { dc.Iters = n } }
func commCores(n int) func(*DistConfig)           { return func(dc *DistConfig) { dc.CommCores = n } }
func interference(f float64) func(*DistConfig)    { return func(dc *DistConfig) { dc.Interference = f } }
func algo(a comm.AllreduceAlgo) func(*DistConfig) { return func(dc *DistConfig) { dc.Allreduce = a } }
func onRanks(n int) func(*DistConfig) {
	return func(dc *DistConfig) { dc.Ranks, dc.Topo = n, fabric.NewPrunedFatTree(n, 12.5e9) }
}
func linkBW(bw float64) func(*DistConfig) {
	return func(dc *DistConfig) { dc.Topo = fabric.NewPrunedFatTree(dc.Ranks, bw) }
}
func tiered(bytes int, skew float64) func(*DistConfig) {
	return func(dc *DistConfig) { dc.EmbCacheBytes, dc.ColdTierBW, dc.EmbSkew = bytes, DefaultColdTierBW, skew }
}

// A metric reads one number off a run.
type metric func(*DistResult) float64

var (
	iterS    metric = func(r *DistResult) float64 { return r.IterSeconds }
	computeS metric = func(r *DistResult) float64 { return r.ComputePerIter }
	commS    metric = (*DistResult).TotalCommPerIter
	// arBusy is the bucketed schedule's two allreduce labels together.
	arBusy metric = func(r *DistResult) float64 { return r.BusyPerIter["ar-top"] + r.BusyPerIter["ar-bot"] }
)

func busyOf(l string) metric { return func(r *DistResult) float64 { return r.BusyPerIter[l] } }
func waitOf(l string) metric { return func(r *DistResult) float64 { return r.WaitPerIter[l] } }
func prepOf(l string) metric { return func(r *DistResult) float64 { return r.PrepPerIter[l] } }
func num(v float64) metric   { return func(*DistResult) float64 { return v } }
func hiddenOf(l string) metric {
	return func(r *DistResult) float64 {
		exps := r.Exposures()
		if i := slices.IndexFunc(exps, func(e Exposure) bool { return e.Label == l }); i >= 0 {
			return exps[i].HiddenShare()
		}
		return 0
	}
}

type relation uint8

const (
	lt relation = iota // mx(x)·k < my(y)
	le                 // mx(x)·k ≤ my(y)
	eq                 // |mx(x) − my(y)| ≤ k·|my(y)|: k = 0 is bit-equal
)

// An order row: for every base in over, the base with x applied beats the
// base with y applied — mx of the one against my (mx when nil) of the
// other, in relation rel with factor or tolerance k (a zero factor is 1).
type order struct {
	test   string
	over   []DistConfig
	x, y   func(*DistConfig)
	mx, my metric
	rel    relation
	k      float64
}

// largeAt is Large on each rank count, strong and weak scaling.
func largeAt(ranks []int, set ...func(*DistConfig)) (dcs []DistConfig) {
	for _, r := range ranks {
		dcs = append(dcs, at(Large, r, set...), at(Large, r, append(set, weak)...))
	}
	return dcs
}

// contentionRuns are the named contentionCases (all when none are named).
func contentionRuns(names ...string) (dcs []DistConfig) {
	for _, c := range contentionCases() {
		if len(names) == 0 || slices.Contains(names, c.name) {
			dcs = append(dcs, c.config())
		}
	}
	return dcs
}

// budgetLadder is tiered Small at every budget from 4 KiB to 256 MiB, ×4.
func budgetLadder() (dcs []DistConfig) {
	for b := 4 << 10; b <= 256<<20; b *= 4 {
		dcs = append(dcs, at(Small, 4, tiered(b, 1.05)))
	}
	return dcs
}

var (
	large16    = []DistConfig{at(Large, 16, nIters(3))}
	globalRead = []DistConfig{at(MLPerf, 2, weak, loader(LoaderGlobalMB))} // weak scaling from 2 ranks
	sharded    = []DistConfig{at(MLPerf, 16, weak, loader(LoaderSharded))} // … and from 16
	loaderHide = []DistConfig{at(MLPerf, 16, weak, loader(LoaderSharded), nIters(4))}
	bkt        = all(overlap, bucket(64<<20))
)

var orders = []order{
	// Fig. 9: the native alltoall beats scatter-based redistribution.
	{test: "AlltoallBeatsScatterList", over: []DistConfig{at(MLPerf, 16, mpi, nIters(3))}, y: strategy(ScatterList), mx: iterS},
	// Fig. 9/10: CCL-Alltoall beats MPI-Alltoall; MPI's compute inflates by
	// over 1 % under overlap versus blocking (progress-thread interference),
	// CCL's moves by at most 1 %.
	{test: "CCLBeatsMPI", over: large16, y: mpi, mx: iterS},
	{test: "CCLBeatsMPI", over: large16, x: all(mpi, blocking), y: mpi, mx: computeS, k: 1.01},
	{test: "CCLBeatsMPI", over: large16, y: blocking, mx: computeS, rel: eq, k: 0.01},
	{test: "BlockingExposesMoreCommunication", over: []DistConfig{at(Large, 8, nIters(3))}, y: blocking, mx: commS},
	// §VI-D1: under MPI allreduce cost shows up at the alltoall wait
	// (in-order completion).
	{test: "MPIInOrderAlltoallArtifact", over: large16, y: mpi, mx: waitOf("alltoall")},
	// Fig. 9: strong scaling speeds up with decaying efficiency, 4 → 64
	// ranks by 3–16×.
	{test: "StrongScalingSpeedup", over: []DistConfig{at(Large, 16)}, y: onRanks(4), mx: iterS},
	{test: "StrongScalingSpeedup", over: []DistConfig{at(Large, 64)}, y: onRanks(16), mx: iterS},
	{test: "StrongScalingSpeedup", over: []DistConfig{at(Large, 64)}, y: onRanks(4), mx: iterS, rel: le, k: 3},
	{test: "StrongScalingSpeedup", over: []DistConfig{at(Large, 4)}, y: onRanks(64), mx: iterS, rel: le, k: 1.0 / 16},
	// §VI-D2: the global-read loader grows with the global minibatch (≈ 8×
	// from 2 to 16 ranks); the sharded one stays within 1.5×, beats it, and
	// lowers the weak-scaling iteration time.
	{test: "LoaderArtifactGrowsWithGlobalMB", over: globalRead, y: all(onRanks(16), weak), mx: prepOf("loader")},
	{test: "ShardedLoaderKillsWeakScalingArtifact", over: globalRead, y: all(onRanks(16), weak), mx: prepOf("loader"), k: 4},
	{test: "ShardedLoaderKillsWeakScalingArtifact", over: sharded, y: all(onRanks(2), weak), mx: prepOf("loader"), rel: le, k: 1 / 1.5},
	{test: "ShardedLoaderKillsWeakScalingArtifact", over: sharded, y: loader(LoaderGlobalMB), mx: prepOf("loader")},
	{test: "ShardedLoaderKillsWeakScalingArtifact", over: sharded, y: loader(LoaderGlobalMB), mx: iterS},
	// Failure injection: collectives synchronize, so one slow uplink paces
	// everyone (by over 20 %).
	{test: "DegradedFabricSlowsTraining", over: []DistConfig{at(MLPerf, 8)}, y: degraded, mx: iterS, k: 1.2},
	// §IV-A's S knob: 1 comm core exposes more communication than 4 and
	// leaves more cores for compute.
	{test: "CommCoresKnob", over: []DistConfig{at(Large, 16)}, x: commCores(4), y: commCores(1), mx: commS},
	{test: "CommCoresKnob", over: []DistConfig{at(Large, 16)}, x: commCores(1), y: commCores(4), mx: computeS},
	// The overlap-aware pipeline beats the synchronous schedule at 16+
	// ranks, strong and weak; per-layer buckets beat the flat overlapped one
	// at 32+.
	{test: "OverlapReducesIterationTime", over: largeAt([]int{16, 32, 64}), x: overlap, mx: iterS},
	{test: "BucketedReducesIterationTime", over: largeAt([]int{32, 64}, overlap), x: bucket(64 << 20), mx: iterS},
	// The mechanism: overlap drops the alltoall's exposed wait, its busy
	// time unchanged to 1e-9.
	{test: "OverlapHidesBackwardAlltoall", over: []DistConfig{at(Large, 32)}, x: overlap, mx: waitOf("alltoall")},
	{test: "OverlapHidesBackwardAlltoall", over: []DistConfig{at(Large, 32)}, x: overlap, mx: busyOf("alltoall"), rel: eq, k: 1e-9},
	// The prefetch-hidden loader: sync charges it serially, overlapped as
	// busy time on the background stream — the same charge — exposing only
	// the cold start (under half, and less per iteration the longer the
	// run), which lowers the iteration time.
	{test: "OverlapHidesLoaderCharge", over: loaderHide, mx: num(0), my: prepOf("loader")},
	{test: "OverlapHidesLoaderCharge", over: loaderHide, x: overlap, mx: prepOf("loader"), my: num(0), rel: eq},
	{test: "OverlapHidesLoaderCharge", over: loaderHide, x: overlap, mx: busyOf("loader"), my: prepOf("loader"), rel: eq},
	{test: "OverlapHidesLoaderCharge", over: loaderHide, x: overlap, y: overlap, mx: waitOf("loader"), my: busyOf("loader"), k: 2},
	{test: "OverlapHidesLoaderCharge", over: loaderHide, x: all(overlap, nIters(8)), y: overlap, mx: waitOf("loader")},
	{test: "OverlapHidesLoaderCharge", over: loaderHide, x: overlap, mx: iterS},
	// §IV-A: the CCL overlapped allreduce is mostly hidden.
	{test: "ExposuresAccounting", over: []DistConfig{at(Large, 32, overlap)}, mx: num(0.5), my: hiddenOf("allreduce"), rel: le},
	// The hierarchical allreduce halves the ring's latency term at equal
	// volume; the binary tree prices differently (here: higher).
	{test: "HierarchicalAllreduceSelectable", over: []DistConfig{at(Small, 8, overlap)}, x: algo(comm.Hierarchical), mx: busyOf("allreduce")},
	{test: "HierarchicalAllreduceSelectable", over: []DistConfig{at(Small, 8, overlap)}, y: algo(comm.BinaryTree), mx: busyOf("allreduce")},
	// At Large 64R both bucketed allreduces hide ≥ 90 % behind compute, and
	// their busy time sums to the flat allreduce's plus at most 10 % of
	// per-bucket latency.
	{test: "BucketedHidesBothAllreduces", over: []DistConfig{at(Large, 64, overlap)}, x: bkt, y: bkt, mx: num(0.9), my: hiddenOf("ar-top"), rel: le},
	{test: "BucketedHidesBothAllreduces", over: []DistConfig{at(Large, 64, overlap)}, x: bkt, y: bkt, mx: num(0.9), my: hiddenOf("ar-bot"), rel: le},
	{test: "BucketedHidesBothAllreduces", over: []DistConfig{at(Large, 64, overlap)}, y: bkt, mx: busyOf("allreduce"), my: arBusy, rel: le},
	{test: "BucketedHidesBothAllreduces", over: []DistConfig{at(Large, 64, overlap)}, x: bkt, mx: arBusy, my: busyOf("allreduce"), rel: le, k: 1 / 1.1},
	// A config that sets no schedule knob beats the paper's flat sync, its
	// bucket size DefaultBucketBytes.
	{test: "DefaultScheduleIsBucketedOverlapped", over: []DistConfig{at(Large, 64, defaults)}, y: flatSync, mx: iterS},
	{test: "DefaultScheduleIsBucketedOverlapped", over: []DistConfig{at(Large, 64, defaults)}, y: bucket(DefaultBucketBytes), mx: iterS, rel: eq},
	// The tiered store is slower than RAM at every budget, hot beats
	// all-cold, and neither a larger budget nor a hotter skew slows a run.
	{test: "EmbStoreTimingMonotone", over: budgetLadder(), x: untiered, mx: iterS},
	{test: "EmbStoreTimingMonotone", over: budgetLadder(), x: func(dc *DistConfig) { dc.EmbCacheBytes *= 4 }, mx: iterS, rel: le},
	{test: "EmbStoreTimingMonotone", over: budgetLadder()[:1], x: tiered(1<<30, 1.05), mx: iterS},
	{test: "EmbStoreTimingMonotone", over: []DistConfig{at(Small, 4, tiered(64<<20, 0.8))}, x: tiered(64<<20, 1.05), mx: iterS, rel: le},
	{test: "EmbStoreTimingMonotone", over: []DistConfig{at(Small, 4, tiered(64<<20, 1.05))}, x: tiered(64<<20, 1.2), mx: iterS, rel: le},
	// Contention-aware charging never speeds a run up; it leaves the flat
	// synchronous schedule's price alone, makes the bucketed one pay for the
	// shared trunk, and the overlap win survives it.
	{test: "ContentionChargesOverlappedSchedules", over: contentionRuns(), x: uncontended, y: contended, mx: iterS, rel: le},
	{test: "ContentionChargesOverlappedSchedules", over: contentionRuns("strong/flat-sync"), y: contended, mx: iterS, rel: eq},
	{test: "ContentionChargesOverlappedSchedules", over: contentionRuns("strong/bucketed"), y: contended, mx: iterS},
	{test: "ContentionChargesOverlappedSchedules", over: contentionRuns("strong/bucketed", "weak/bucketed"), x: contended, y: all(contended, flatSync), mx: iterS},
	// §VI-D1's Interference knob: 1 disables MPI's flat factor, 0 keeps the
	// default 1.3.
	{test: "InterferenceOverride", over: []DistConfig{at(Large, 16, mpi)}, x: interference(1), mx: iterS},
	{test: "InterferenceOverride", over: []DistConfig{at(Large, 16, mpi)}, x: interference(1.3), mx: iterS, rel: eq},
	// The first law: doubling every link's bandwidth never slows a run, with
	// contention off and on; nor does doubling the cold tier's, tiered or
	// not and at every cache budget.
	{test: "IterTimeNonIncreasingInBandwidth", over: timingSample.x(axContention).configs(), x: linkBW(25e9), mx: iterS, rel: le},
	{test: "IterTimeNonIncreasingInBandwidth", over: slices.Concat(timingSample.x(axContention).configs(), budgetLadder()), x: func(dc *DistConfig) { dc.ColdTierBW *= 2 }, mx: iterS, rel: le},
}

// checkOrders checks the rows the calling test states. Timing runs count no
// allocations, so these tests run in parallel.
func checkOrders(t *testing.T) {
	t.Helper()
	t.Parallel()
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	run := func(dc DistConfig, set func(*DistConfig)) (*DistResult, DistConfig) {
		dc.Pools, dc.Workspaces = pools, wss
		if set != nil {
			set(&dc)
		}
		return mustRun(dc), dc
	}
	n := 0
	for _, o := range orders {
		if "Test"+o.test != t.Name() {
			continue
		}
		n++
		for _, base := range o.over {
			rx, dx := run(base, o.x)
			ry, dy := run(base, o.y)
			my := o.my
			if my == nil {
				my = o.mx
			}
			x, y, k := o.mx(rx), my(ry), cmp.Or(o.k, 1)
			ok := x*k < y || o.rel == le && x*k <= y
			if o.rel == eq {
				ok = math.Abs(x-y) <= o.k*math.Abs(y)
			}
			if !ok {
				t.Errorf("row %d: %v from %s\nagainst %v from %s", n, x, label(dx), y, label(dy))
			}
		}
	}
	if n == 0 {
		t.Fatal("no rows in the ordering table")
	}
}

func TestAlltoallBeatsScatterList(t *testing.T)              { checkOrders(t) }
func TestCCLBeatsMPI(t *testing.T)                           { checkOrders(t) }
func TestBlockingExposesMoreCommunication(t *testing.T)      { checkOrders(t) }
func TestMPIInOrderAlltoallArtifact(t *testing.T)            { checkOrders(t) }
func TestStrongScalingSpeedup(t *testing.T)                  { checkOrders(t) }
func TestLoaderArtifactGrowsWithGlobalMB(t *testing.T)       { checkOrders(t) }
func TestShardedLoaderKillsWeakScalingArtifact(t *testing.T) { checkOrders(t) }
func TestDegradedFabricSlowsTraining(t *testing.T)           { checkOrders(t) }
func TestCommCoresKnob(t *testing.T)                         { checkOrders(t) }
func TestOverlapReducesIterationTime(t *testing.T)           { checkOrders(t) }
func TestBucketedReducesIterationTime(t *testing.T)          { checkOrders(t) }
func TestOverlapHidesBackwardAlltoall(t *testing.T)          { checkOrders(t) }
func TestOverlapHidesLoaderCharge(t *testing.T)              { checkOrders(t) }
func TestHierarchicalAllreduceSelectable(t *testing.T)       { checkOrders(t) }
func TestInterferenceOverride(t *testing.T)                  { checkOrders(t) }
func TestIterTimeNonIncreasingInBandwidth(t *testing.T)      { checkOrders(t) }

func TestExposuresAccounting(t *testing.T) { checkOrders(t); checkExposures(t, at(Large, 32, overlap)) }
func TestBucketedHidesBothAllreduces(t *testing.T) {
	checkOrders(t)
	checkExposures(t, at(Large, 64, bkt))
}
func TestDefaultScheduleIsBucketedOverlapped(t *testing.T) {
	checkOrders(t)
	checkExposures(t, at(Large, 64, defaults))
}
func TestEmbStoreTimingMonotone(t *testing.T) { checkOrders(t); checkExposures(t, budgetLadder()...) }

// TestElasticEmptyPlanEqualsRun is a law over the timing sample and one
// functional point: RunElastic with no fault plan and checkpoint cadence k
// is one segment whose result deep-equals Run of the same configuration at
// cadence k — in functional mode losses and every model parameter bit for
// bit, the checkpoint sink's serialization notwithstanding. The segment's
// result is compared, not EffectiveIterSeconds: (x·n)/n need not round back
// to x.
func TestElasticEmptyPlanEqualsRun(t *testing.T) {
	for _, dc := range append(timingSample.configs(), tiny.x(axTier, 1).x(axCheckpoint, 1).configs()...) {
		base := dc
		base.seg = segment{}
		res, err := RunElastic(ElasticConfig{Base: base, CheckpointEvery: dc.seg.ckptEvery})
		if err != nil {
			t.Fatalf("%s: %v", label(dc), err)
		}
		if len(res.Segments) != 1 {
			t.Fatalf("%s: %d segments, want 1", label(dc), len(res.Segments))
		}
		got, want := *res.Segments[0].Res, *mustRun(dc)
		for rk, m := range want.Models {
			if m != nil {
				checkModelsClose(t, label(dc), got.Models[rk], m, 0)
			}
		}
		got.Models, want.Models = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunElastic segment %+v, Run %+v", label(dc), got, want)
		}
	}
}

func TestContentionChargesOverlappedSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank Large runs")
	}
	checkOrders(t)
}
