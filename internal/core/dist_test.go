package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

func distTestConfig(cfg Config, ranks, globalN, iters int, v Variant, functional bool) DistConfig {
	// Pinned to the paper's instrumented flat-sync schedule: these tests
	// measure the reproduction semantics, not the (bucketed+overlapped)
	// defaults — tests that exercise a schedule knob set it explicitly.
	dc := DistConfig{
		Cfg:         cfg,
		Ranks:       ranks,
		GlobalN:     globalN,
		Iters:       iters,
		Variant:     v,
		Topo:        fabric.NewPrunedFatTree(ranks, 12.5e9),
		Socket:      perfmodel.CLX8280,
		Sync:        true,
		BucketBytes: FlatBuckets,
		Seed:        17,
		LR:          0.5,
	}
	if functional {
		run := cfg
		dc.RunCfg = &run
		dc.Dataset = data.NewClickLog(42, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	}
	return dc
}

// trainSingle runs the single-socket trainer for comparison and returns the
// model plus the per-iteration losses.
func trainSingle(cfg Config, globalN, iters int, seed int64, lr float32) (*Model, []float64) {
	m := NewModel(cfg, mlpBlockFor(globalN), seed)
	pool := par.NewPool(2)
	defer pool.Close()
	tr := NewTrainer(m, pool, embedding.RaceFree, lr, FP32)
	ds := data.NewClickLog(42, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	losses := make([]float64, iters)
	for i := 0; i < iters; i++ {
		losses[i] = tr.Step(ds.Batch(i, globalN))
	}
	return m, losses
}

// TestDistributedMatchesSingleSocket is the core hybrid-parallelism
// correctness check: R ranks training on shards of the same global batches
// must produce (nearly) the same model as one socket training on the full
// batches, for every communication strategy.
func TestDistributedMatchesSingleSocket(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	ref, _ := trainSingle(cfg, globalN, iters, 17, 0.5)

	for _, v := range Variants {
		for _, ranks := range []int{2, 4} {
			dc := distTestConfig(cfg, ranks, globalN, iters, v, true)
			res := mustRun(dc)

			// MLP replicas must agree across ranks and with the reference.
			for rk := 0; rk < ranks; rk++ {
				m := res.Models[rk]
				checkMLPClose(t, v.Name(), m, ref, 2e-3)
			}
			// Each owned table must match the reference's table.
			for rk := 0; rk < ranks; rk++ {
				m := res.Models[rk]
				for ti, tab := range m.Tables {
					if tab == nil {
						continue
					}
					for i := range tab.W {
						d := math.Abs(float64(tab.W[i] - ref.Tables[ti].W[i]))
						if d > 2e-3 {
							t.Fatalf("%s R=%d: table %d diverged by %g", v.Name(), ranks, ti, d)
						}
					}
				}
			}
		}
	}
}

func checkMLPClose(t *testing.T, label string, got, want *Model, tol float64) {
	t.Helper()
	var gotP, wantP [][]float32
	got.Bot.VisitParams(func(_ string, p []float32) { gotP = append(gotP, p) })
	got.Top.VisitParams(func(_ string, p []float32) { gotP = append(gotP, p) })
	want.Bot.VisitParams(func(_ string, p []float32) { wantP = append(wantP, p) })
	want.Top.VisitParams(func(_ string, p []float32) { wantP = append(wantP, p) })
	for pi := range gotP {
		for i := range gotP[pi] {
			d := math.Abs(float64(gotP[pi][i] - wantP[pi][i]))
			if d > tol {
				t.Fatalf("%s: MLP param %d diverged by %g", label, pi, d)
				return
			}
		}
	}
}

func TestDistributedRanksStayInSync(t *testing.T) {
	// Data-parallel MLP replicas must be identical across ranks after
	// training (they see the same reduced gradients).
	cfg := tinyConfig()
	dc := distTestConfig(cfg, 4, 64, 3, Variant{Alltoall, cluster.CCLBackend}, true)
	res := mustRun(dc)
	for rk := 1; rk < 4; rk++ {
		checkMLPClose(t, "replica sync", res.Models[rk], res.Models[0], 1e-7)
	}
}

func TestDistributedLossesRecorded(t *testing.T) {
	cfg := tinyConfig()
	dc := distTestConfig(cfg, 2, 64, 4, Variant{Alltoall, cluster.MPIBackend}, true)
	res := mustRun(dc)
	for rk := 0; rk < 2; rk++ {
		if len(res.Losses[rk]) != 4 {
			t.Fatalf("rank %d recorded %d losses want 4", rk, len(res.Losses[rk]))
		}
	}
}

func TestTimingOnlyModeRuns(t *testing.T) {
	// Paper-scale timing runs (no functional model) must work for all
	// configs and strategies and give sane positive times.
	for _, v := range Variants {
		dc := distTestConfig(Small, 8, Small.GlobalMB, 2, v, false)
		res := mustRun(dc)
		if res.IterSeconds <= 0 {
			t.Fatalf("%s: non-positive iteration time", v.Name())
		}
		if res.ComputePerIter <= 0 {
			t.Fatalf("%s: no compute time", v.Name())
		}
		if res.BusyPerIter["alltoall"] <= 0 {
			t.Fatalf("%s: no alltoall traffic recorded", v.Name())
		}
		if res.BusyPerIter["allreduce"] <= 0 {
			t.Fatalf("%s: no allreduce traffic recorded", v.Name())
		}
	}
}

func TestAlltoallBeatsScatterList(t *testing.T) {
	// Fig. 9: the native alltoall outperforms scatter-based redistribution
	// (the paper reports >2× end-to-end at scale; at minimum the comm time
	// must be clearly lower).
	mk := func(v Variant) *DistResult {
		return mustRun(distTestConfig(MLPerf, 16, MLPerf.GlobalMB, 3, v, false))
	}
	sl := mk(Variant{ScatterList, cluster.MPIBackend})
	a2a := mk(Variant{Alltoall, cluster.MPIBackend})
	if a2a.IterSeconds >= sl.IterSeconds {
		t.Fatalf("alltoall (%.1fms) must beat scatterlist (%.1fms)",
			a2a.IterSeconds*1e3, sl.IterSeconds*1e3)
	}
}

func TestCCLBeatsMPI(t *testing.T) {
	// Fig. 9/10: CCL-Alltoall beats MPI-Alltoall (no compute interference,
	// concurrent channels).
	mpi := mustRun(distTestConfig(Large, 16, Large.GlobalMB, 3, Variant{Alltoall, cluster.MPIBackend}, false))
	ccl := mustRun(distTestConfig(Large, 16, Large.GlobalMB, 3, Variant{Alltoall, cluster.CCLBackend}, false))
	if ccl.IterSeconds >= mpi.IterSeconds {
		t.Fatalf("CCL (%.1fms) must beat MPI (%.1fms)", ccl.IterSeconds*1e3, mpi.IterSeconds*1e3)
	}
	// And MPI's compute inflates under overlap versus blocking (the
	// progress-thread interference of Fig. 10), while CCL's does not.
	mpiCfg := distTestConfig(Large, 16, Large.GlobalMB, 3, Variant{Alltoall, cluster.MPIBackend}, false)
	mpiCfg.Blocking = true
	mpiBlocking := mustRun(mpiCfg)
	if mpi.ComputePerIter <= mpiBlocking.ComputePerIter*1.01 {
		t.Fatalf("MPI overlap compute %.2fms must exceed blocking %.2fms",
			mpi.ComputePerIter*1e3, mpiBlocking.ComputePerIter*1e3)
	}
	cclCfg := distTestConfig(Large, 16, Large.GlobalMB, 3, Variant{Alltoall, cluster.CCLBackend}, false)
	cclCfg.Blocking = true
	cclBlocking := mustRun(cclCfg)
	if rel := math.Abs(ccl.ComputePerIter-cclBlocking.ComputePerIter) / cclBlocking.ComputePerIter; rel > 0.01 {
		t.Fatalf("CCL compute must not change with overlap (rel diff %.3f)", rel)
	}
}

func TestBlockingExposesMoreCommunication(t *testing.T) {
	base := distTestConfig(Large, 8, Large.GlobalMB, 3, Variant{Alltoall, cluster.CCLBackend}, false)
	overlap := mustRun(base)
	base.Blocking = true
	blocking := mustRun(base)
	if blocking.TotalCommPerIter() <= overlap.TotalCommPerIter() {
		t.Fatalf("blocking comm %.2fms must exceed overlapped %.2fms",
			blocking.TotalCommPerIter()*1e3, overlap.TotalCommPerIter()*1e3)
	}
}

func TestStrongScalingSpeedup(t *testing.T) {
	// Strong scaling (Fig. 9): more ranks on a fixed problem must reduce
	// iteration time, with decaying efficiency.
	iterAt := func(ranks int) float64 {
		dc := distTestConfig(Large, ranks, Large.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
		return mustRun(dc).IterSeconds
	}
	t4, t16, t64 := iterAt(4), iterAt(16), iterAt(64)
	if !(t16 < t4 && t64 < t16) {
		t.Fatalf("strong scaling broken: 4R=%.1fms 16R=%.1fms 64R=%.1fms", t4*1e3, t16*1e3, t64*1e3)
	}
	speedup := t4 / t64
	if speedup < 3 || speedup > 16 {
		t.Fatalf("4→64R speedup %.1f outside plausible range (paper: ~5-6x over 8x ranks)", speedup)
	}
}

func TestWeakScalingEfficiencyHigherThanStrong(t *testing.T) {
	// Fig. 12 vs Fig. 9: weak scaling sustains higher efficiency because
	// the alltoall volume grows with rank count while allreduce stays fixed.
	strong := func(r int) float64 {
		return mustRun(distTestConfig(Large, r, Large.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)).IterSeconds
	}
	weak := func(r int) float64 {
		return mustRun(distTestConfig(Large, r, Large.LocalMB*r, 2, Variant{Alltoall, cluster.CCLBackend}, false)).IterSeconds
	}
	strongEff := strong(4) / strong(32) / 8 // ideal = 1
	weakEff := weak(4) / weak(32)           // ideal = 1 (per-rank work constant)
	if weakEff < strongEff {
		t.Fatalf("weak efficiency %.2f must exceed strong %.2f", weakEff, strongEff)
	}
}

func TestLoaderArtifactGrowsWithGlobalMB(t *testing.T) {
	// §VI-D2: the data loader reads the full global minibatch on each rank,
	// so weak-scaling compute grows with rank count.
	mk := func(ranks int) *DistResult {
		dc := distTestConfig(MLPerf, ranks, MLPerf.LocalMB*ranks, 2, Variant{Alltoall, cluster.CCLBackend}, false)
		dc.Loader = LoaderGlobalMB
		return mustRun(dc)
	}
	small := mk(2)
	big := mk(16)
	if big.PrepPerIter["loader"] <= small.PrepPerIter["loader"] {
		t.Fatal("loader cost must grow with global minibatch")
	}
}

// TestShardedLoaderKillsWeakScalingArtifact pins the tentpole's timing
// story: under the global-read artifact, per-rank loader time grows with
// the rank count (weak scaling: GlobalN = LN·R); under the sharded
// pipeline it stays flat at ≈2 shares, so the Fig. 13 compute growth
// disappears.
func TestShardedLoaderKillsWeakScalingArtifact(t *testing.T) {
	mk := func(ranks int, mode LoaderMode) *DistResult {
		dc := distTestConfig(MLPerf, ranks, MLPerf.LocalMB*ranks, 2, Variant{Alltoall, cluster.CCLBackend}, false)
		dc.Loader = mode
		return mustRun(dc)
	}
	gSmall, gBig := mk(2, LoaderGlobalMB), mk(16, LoaderGlobalMB)
	if gBig.PrepPerIter["loader"] <= gSmall.PrepPerIter["loader"]*4 {
		t.Fatalf("artifact loader must grow ~8x from 2 to 16 ranks: %.3f vs %.3f ms",
			gSmall.PrepPerIter["loader"]*1e3, gBig.PrepPerIter["loader"]*1e3)
	}
	sSmall, sBig := mk(2, LoaderSharded), mk(16, LoaderSharded)
	if ratio := sBig.PrepPerIter["loader"] / sSmall.PrepPerIter["loader"]; ratio > 1.5 {
		t.Fatalf("sharded loader must stay ~flat across rank counts, grew %.2fx", ratio)
	}
	if sBig.PrepPerIter["loader"] >= gBig.PrepPerIter["loader"] {
		t.Fatalf("sharded loader (%.3f ms) must beat the artifact (%.3f ms) at 16 ranks",
			sBig.PrepPerIter["loader"]*1e3, gBig.PrepPerIter["loader"]*1e3)
	}
	// The artifact costs one global-batch read; sharded ≈ 2/R of it.
	if sBig.IterSeconds >= gBig.IterSeconds {
		t.Fatal("sharded loader must lower the weak-scaling iteration time")
	}
}

// TestLoaderModesLossParity is the functional half of the loader
// acceptance: training through the sharded streaming pipeline must produce
// the SAME losses as training through the global-read artifact (their
// batches are bit-identical by construction) and both must match the
// single-socket trainer on the full batches to float32 round-off, for
// every communication strategy at 2 and 4 ranks.
func TestLoaderModesLossParity(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)

	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	for _, v := range Variants {
		for _, ranks := range []int{2, 4} {
			meanLosses := map[LoaderMode][]float64{}
			for _, mode := range []LoaderMode{LoaderGlobalMB, LoaderSharded} {
				dc := distTestConfig(cfg, ranks, globalN, iters, v, true)
				dc.Loader = mode
				dc.Pools = pools
				dc.Workspaces = wss
				res := mustRun(dc)
				for it := 0; it < iters; it++ {
					var mean float64
					for rk := 0; rk < ranks; rk++ {
						mean += res.Losses[rk][it]
					}
					mean /= float64(ranks)
					meanLosses[mode] = append(meanLosses[mode], mean)
					if d := math.Abs(mean - ref[it]); d > 1e-6 {
						t.Errorf("%s %s R=%d iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)",
							v.Name(), mode, ranks, it, mean, ref[it], d)
					}
				}
			}
			for it := 0; it < iters; it++ {
				g, s := meanLosses[LoaderGlobalMB][it], meanLosses[LoaderSharded][it]
				if d := math.Abs(g - s); d > 1e-6 {
					t.Errorf("%s R=%d iter %d: global-read loss %v vs sharded %v (|Δ|=%g > 1e-6)",
						v.Name(), ranks, it, g, s, d)
				}
			}
		}
	}
}

func TestMPIInOrderAlltoallArtifact(t *testing.T) {
	// §VI-D1: with the MPI backend and overlapping communication, allreduce
	// cost shows up at the alltoall wait (in-order completion), so the
	// alltoall wait share under MPI exceeds that under CCL.
	mpi := mustRun(distTestConfig(Large, 16, Large.GlobalMB, 3, Variant{Alltoall, cluster.MPIBackend}, false))
	ccl := mustRun(distTestConfig(Large, 16, Large.GlobalMB, 3, Variant{Alltoall, cluster.CCLBackend}, false))
	if mpi.WaitPerIter["alltoall"] <= ccl.WaitPerIter["alltoall"] {
		t.Fatalf("MPI alltoall wait %.2fms must exceed CCL %.2fms (in-order artifact)",
			mpi.WaitPerIter["alltoall"]*1e3, ccl.WaitPerIter["alltoall"]*1e3)
	}
}

func TestDistPanicsOnBadRankCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: ranks beyond table count")
		}
	}()
	mustRun(distTestConfig(Small, 16, Small.GlobalMB, 1, Variant{Alltoall, cluster.MPIBackend}, false))
}

func TestDegradedFabricSlowsTraining(t *testing.T) {
	// Failure injection: derating one socket's uplink must slow the whole
	// job — collectives synchronize, so one slow link paces everyone.
	base := distTestConfig(MLPerf, 8, MLPerf.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
	healthy := mustRun(base)
	base.Topo = fabric.NewDegraded(fabric.NewPrunedFatTree(8, 12.5e9), map[int]float64{2: 0.1})
	degraded := mustRun(base)
	if degraded.IterSeconds <= healthy.IterSeconds*1.2 {
		t.Fatalf("degraded link should slow iteration: %.2fms vs %.2fms",
			degraded.IterSeconds*1e3, healthy.IterSeconds*1e3)
	}
}

func TestCommCoresKnob(t *testing.T) {
	// The §IV-A S knob: 1 comm core exposes more communication than 4.
	mk := func(s int) *DistResult {
		dc := distTestConfig(Large, 16, Large.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
		dc.CommCores = s
		return mustRun(dc)
	}
	one, four := mk(1), mk(4)
	if one.TotalCommPerIter() <= four.TotalCommPerIter() {
		t.Fatalf("1 comm core should expose more comm than 4: %.2f vs %.2f ms",
			one.TotalCommPerIter()*1e3, four.TotalCommPerIter()*1e3)
	}
	if one.ComputePerIter >= four.ComputePerIter {
		t.Fatal("1 comm core leaves more cores for compute")
	}
}

// TestOverlapReducesIterationTime pins the tentpole's timing claim: with
// the CCL backend and the native alltoall, the overlap-aware pipeline
// (async backward redistribution, deferred waits, distinct channels)
// strictly reduces the virtual iteration time versus the synchronous
// schedule on both the Fig. 9 strong-scaling and Fig. 12 weak-scaling runs
// at 16+ ranks.
func TestOverlapReducesIterationTime(t *testing.T) {
	v := Variant{Alltoall, cluster.CCLBackend}
	mk := func(ranks, gn int, overlap bool) *DistResult {
		dc := distTestConfig(Large, ranks, gn, 2, v, false)
		dc.Sync = !overlap
		return mustRun(dc)
	}
	for _, ranks := range []int{16, 32, 64} {
		for _, weak := range []bool{false, true} {
			gn := Large.GlobalMB
			label := "strong"
			if weak {
				gn = Large.LocalMB * ranks
				label = "weak"
			}
			sync := mk(ranks, gn, false)
			ovl := mk(ranks, gn, true)
			if ovl.IterSeconds >= sync.IterSeconds {
				t.Errorf("%s %dR: overlapped %.3fms must beat sync %.3fms",
					label, ranks, ovl.IterSeconds*1e3, sync.IterSeconds*1e3)
			}
		}
	}
}

// TestOverlapHidesBackwardAlltoall checks the mechanism, not just the
// outcome: under the overlapped schedule the alltoall's exposed wait drops
// (part of the backward redistribution hides behind the bottom-MLP
// backward) while its busy time is unchanged — the collective itself got
// no faster, it just stopped stalling the compute stream.
func TestOverlapHidesBackwardAlltoall(t *testing.T) {
	v := Variant{Alltoall, cluster.CCLBackend}
	mk := func(overlap bool) *DistResult {
		dc := distTestConfig(Large, 32, Large.GlobalMB, 2, v, false)
		dc.Sync = !overlap
		return mustRun(dc)
	}
	sync, ovl := mk(false), mk(true)
	if ovl.WaitPerIter["alltoall"] >= sync.WaitPerIter["alltoall"] {
		t.Errorf("overlap must reduce exposed alltoall wait: %.3f vs %.3f ms",
			ovl.WaitPerIter["alltoall"]*1e3, sync.WaitPerIter["alltoall"]*1e3)
	}
	rel := math.Abs(ovl.BusyPerIter["alltoall"]-sync.BusyPerIter["alltoall"]) / sync.BusyPerIter["alltoall"]
	if rel > 1e-9 {
		t.Errorf("alltoall busy time must not change with overlap (rel diff %g)", rel)
	}
}

// TestOverlapHidesLoaderCharge pins the prefetch-hidden loader model: the
// background-charged loader exposes only its cold start, so the exposed
// share shrinks with the iteration count while busy time stays one charge
// per iteration — matching the real double-buffered prefetch goroutine.
func TestOverlapHidesLoaderCharge(t *testing.T) {
	mk := func(iters int, overlap bool) *DistResult {
		dc := distTestConfig(MLPerf, 16, MLPerf.LocalMB*16, iters, Variant{Alltoall, cluster.CCLBackend}, false)
		dc.Loader = LoaderSharded
		dc.Sync = !overlap
		return mustRun(dc)
	}
	sync := mk(4, false)
	ovl := mk(4, true)
	if sync.PrepPerIter["loader"] <= 0 {
		t.Fatal("sync schedule must charge the loader serially")
	}
	if ovl.PrepPerIter["loader"] != 0 {
		t.Fatal("overlapped schedule must not charge the loader as serial Prep")
	}
	// Busy equals the serial charge (same work, different stream)…
	if d := math.Abs(ovl.BusyPerIter["loader"] - sync.PrepPerIter["loader"]); d > 1e-12 {
		t.Errorf("loader busy %.6fms must equal the serial charge %.6fms",
			ovl.BusyPerIter["loader"]*1e3, sync.PrepPerIter["loader"]*1e3)
	}
	// …but most of it hides behind the previous iteration's compute: only
	// the cold start is exposed, so 1/iters of the total.
	if ovl.WaitPerIter["loader"] >= ovl.BusyPerIter["loader"]*0.5 {
		t.Errorf("loader exposure %.3fms should be far below busy %.3fms (cold start only)",
			ovl.WaitPerIter["loader"]*1e3, ovl.BusyPerIter["loader"]*1e3)
	}
	long := mk(8, true)
	if long.WaitPerIter["loader"] >= ovl.WaitPerIter["loader"] {
		t.Error("amortized cold start: more iterations must reduce per-iter loader exposure")
	}
	if ovl.IterSeconds >= sync.IterSeconds {
		t.Errorf("hiding the loader must reduce iteration time: %.3f vs %.3f ms",
			ovl.IterSeconds*1e3, sync.IterSeconds*1e3)
	}
}

// TestExposuresAccounting checks the per-label breakdown the overlap
// ablation reports: Busy = Exposed + Hidden for every label (Hidden clamped
// at zero), and under the overlapped pipeline the allreduce label is mostly
// hidden on the CCL backend (the paper's §IV-A design point).
func TestExposuresAccounting(t *testing.T) {
	dc := distTestConfig(Large, 32, Large.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
	dc.Sync = false
	res := mustRun(dc)
	seen := map[string]bool{}
	for _, e := range res.Exposures() {
		seen[e.Label] = true
		if e.Busy < 0 || e.Exposed < 0 || e.Hidden < 0 {
			t.Fatalf("%s: negative component %+v", e.Label, e)
		}
		if e.Busy > e.Exposed && math.Abs(e.Busy-e.Exposed-e.Hidden) > 1e-12 {
			t.Fatalf("%s: busy %.9f != exposed %.9f + hidden %.9f", e.Label, e.Busy, e.Exposed, e.Hidden)
		}
		if s := e.HiddenShare(); s < 0 || s > 1 {
			t.Fatalf("%s: hidden share %v out of range", e.Label, s)
		}
	}
	if !seen["alltoall"] || !seen["allreduce"] {
		t.Fatalf("expected alltoall and allreduce labels, got %v", seen)
	}
	for _, e := range res.Exposures() {
		if e.Label == "allreduce" && e.HiddenShare() < 0.5 {
			t.Errorf("CCL overlapped allreduce should be mostly hidden, share %.2f", e.HiddenShare())
		}
	}
}

// TestHierarchicalAllreduceSelectable checks the DistConfig algorithm knob:
// the hierarchical two-level allreduce must strictly reduce the allreduce
// busy time versus the ring on the fat-tree (it halves the latency term at
// identical volume), and the binary tree must change the charge too.
func TestHierarchicalAllreduceSelectable(t *testing.T) {
	mk := func(algo comm.AllreduceAlgo) *DistResult {
		dc := distTestConfig(Small, 8, Small.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
		dc.Sync = false
		dc.Allreduce = algo
		return mustRun(dc)
	}
	ring, hier, tree := mk(comm.RingRSAG), mk(comm.Hierarchical), mk(comm.BinaryTree)
	if hier.BusyPerIter["allreduce"] >= ring.BusyPerIter["allreduce"] {
		t.Errorf("hierarchical allreduce busy %.4fms must beat ring %.4fms",
			hier.BusyPerIter["allreduce"]*1e3, ring.BusyPerIter["allreduce"]*1e3)
	}
	if tree.BusyPerIter["allreduce"] == ring.BusyPerIter["allreduce"] {
		t.Error("binary-tree allreduce must charge a different cost model than ring")
	}
}

// TestOverlapLossParity extends the loss-parity invariant to the overlapped
// pipeline and both new allreduce algorithms: reordering issue points and
// deferring waits must not move a single bit of the functional math — the
// mean shard loss must still match the single-socket trainer at 1e-6 for
// every strategy on both backends.
func TestOverlapLossParity(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)

	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	check := func(v Variant, ranks int, algo comm.AllreduceAlgo, loader LoaderMode) {
		dc := distTestConfig(cfg, ranks, globalN, iters, v, true)
		dc.Sync = false
		dc.Allreduce = algo
		dc.Loader = loader
		dc.Pools = pools
		dc.Workspaces = wss
		res := mustRun(dc)
		for it := 0; it < iters; it++ {
			var mean float64
			for rk := 0; rk < ranks; rk++ {
				mean += res.Losses[rk][it]
			}
			mean /= float64(ranks)
			if d := math.Abs(mean - ref[it]); d > 1e-6 {
				t.Errorf("%s R=%d %v %v iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)",
					v.Name(), ranks, algo, loader, it, mean, ref[it], d)
			}
		}
	}
	for _, v := range Variants {
		for _, ranks := range []int{2, 4} {
			check(v, ranks, comm.RingRSAG, LoaderNone)
		}
	}
	// Algorithm selection changes only the cost model; parity must survive
	// it, as must the prefetch-hidden loader modes.
	ccl := Variant{Alltoall, cluster.CCLBackend}
	check(ccl, 4, comm.Hierarchical, LoaderNone)
	check(ccl, 4, comm.BinaryTree, LoaderNone)
	check(ccl, 4, comm.RingRSAG, LoaderSharded)
	check(ccl, 2, comm.RingRSAG, LoaderGlobalMB)
}

// TestDistributedLossParity is the workspace-aliasing canary: with per-rank
// buffer reuse across iterations, any stale or cross-wired view (send
// overwritten before consumption, recv shared between tables, gradient rows
// assembled into the wrong slot) shifts the loss trajectory. The average of
// the per-rank shard losses is mathematically the global-batch loss, so a
// functional run must match the single-socket trainer on identical data to
// float32 round-off — far tighter than the parameter-level check above.
func TestDistributedLossParity(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)

	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	for _, v := range Variants {
		for _, ranks := range []int{2, 4} {
			dc := distTestConfig(cfg, ranks, globalN, iters, v, true)
			// Shared pools and workspaces across all variant × rank runs:
			// exactly the reuse pattern the figure sweeps rely on.
			dc.Pools = pools
			dc.Workspaces = wss
			res := mustRun(dc)
			for it := 0; it < iters; it++ {
				var mean float64
				for rk := 0; rk < ranks; rk++ {
					mean += res.Losses[rk][it]
				}
				mean /= float64(ranks)
				if d := math.Abs(mean - ref[it]); d > 1e-6 {
					t.Errorf("%s R=%d iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)",
						v.Name(), ranks, it, mean, ref[it], d)
				}
			}
		}
	}
}

// TestBucketedReducesIterationTime pins the tentpole's headline: at Large
// 64R strong scaling the bucketed+overlapped schedule must strictly beat
// the flat overlapped pipeline (which beats sync), because every bucket's
// allreduce starts as soon as its layers' backward completes and drains
// across the round-robined channels behind the remaining backward compute —
// instead of the whole flat buffer waiting for the full backward and one
// FIFO.
func TestBucketedReducesIterationTime(t *testing.T) {
	v := Variant{Alltoall, cluster.CCLBackend}
	mk := func(ranks, gn int, overlap bool, bucketBytes int) *DistResult {
		dc := distTestConfig(Large, ranks, gn, 2, v, false)
		dc.Sync = !overlap
		dc.BucketBytes = bucketBytes
		return mustRun(dc)
	}
	const bucket = 64 << 20
	for _, ranks := range []int{32, 64} {
		for _, weak := range []bool{false, true} {
			gn := Large.GlobalMB
			label := "strong"
			if weak {
				gn = Large.LocalMB * ranks
				label = "weak"
			}
			flat := mk(ranks, gn, true, FlatBuckets)
			bkt := mk(ranks, gn, true, bucket)
			if bkt.IterSeconds >= flat.IterSeconds {
				t.Errorf("%s %dR: bucketed %.1fms must beat flat overlapped %.1fms",
					label, ranks, bkt.IterSeconds*1e3, flat.IterSeconds*1e3)
			}
		}
	}
}

// TestBucketedHidesBothAllreduces checks the mechanism behind the win: at
// Large 64R both MLP gradient allreduces are ≥90% hidden behind compute
// under the bucketed+overlapped schedule, while their summed busy time
// matches the flat schedule's single allreduce label (the segmentation
// moves no extra bytes — RingRSAG's per-bucket costs are linear in volume).
func TestBucketedHidesBothAllreduces(t *testing.T) {
	v := Variant{Alltoall, cluster.CCLBackend}
	mk := func(bucketBytes int) *DistResult {
		dc := distTestConfig(Large, 64, Large.GlobalMB, 2, v, false)
		dc.Sync = false
		dc.BucketBytes = bucketBytes
		return mustRun(dc)
	}
	flat, bkt := mk(FlatBuckets), mk(64<<20)
	var top, bot Exposure
	for _, e := range bkt.Exposures() {
		switch e.Label {
		case "ar-top":
			top = e
		case "ar-bot":
			bot = e
		}
	}
	if top.Busy <= 0 || bot.Busy <= 0 {
		t.Fatalf("bucketed run must record ar-top/ar-bot busy time: %+v %+v", top, bot)
	}
	if s := top.HiddenShare(); s < 0.9 {
		t.Errorf("ar-top hidden share %.2f, want >= 0.90", s)
	}
	if s := bot.HiddenShare(); s < 0.9 {
		t.Errorf("ar-bot hidden share %.2f, want >= 0.90", s)
	}
	// Segmentation moves the same bytes but each bucket pays its own ring
	// latency phases, so summed busy sits slightly ABOVE the flat allreduce
	// — never below, and within a few percent (the latency term).
	sum := top.Busy + bot.Busy
	if ref := flat.BusyPerIter["allreduce"]; sum < ref || sum > ref*1.1 {
		t.Errorf("bucketed busy %.3fms outside [flat, flat+10%%] of %.3fms: segmentation changed the volume model",
			sum*1e3, ref*1e3)
	}
	if bkt.BusyPerIter["allreduce"] != 0 {
		t.Error("bucketed runs must not emit the flat 'allreduce' label")
	}
}

// TestBucketedLossParity is the functional acceptance of the bucketed
// pipeline: layer-stepped backward, per-bucket allreduces over flat-buffer
// segments, and per-bucket SGD slices must not move a single bit — the mean
// shard loss must match the single-socket trainer at 1e-6 for every
// communication strategy on both backends, under both schedules, through
// both real loader modes, and for the selectable allreduce algorithms. The
// small BucketBytes forces multi-layer coalescing on the tiny config, so
// buckets genuinely span layer groups.
func TestBucketedLossParity(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	const bucketBytes = 4096
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)

	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	check := func(v Variant, ranks int, overlap bool, algo comm.AllreduceAlgo, loader LoaderMode) {
		t.Helper()
		dc := distTestConfig(cfg, ranks, globalN, iters, v, true)
		dc.Sync = !overlap
		dc.Allreduce = algo
		dc.Loader = loader
		dc.BucketBytes = bucketBytes
		dc.Pools = pools
		dc.Workspaces = wss
		res := mustRun(dc)
		for it := 0; it < iters; it++ {
			var mean float64
			for rk := 0; rk < ranks; rk++ {
				mean += res.Losses[rk][it]
			}
			mean /= float64(ranks)
			if d := math.Abs(mean - ref[it]); d > 1e-6 {
				t.Errorf("%s R=%d overlap=%v %v %v iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)",
					v.Name(), ranks, overlap, algo, loader, it, mean, ref[it], d)
			}
		}
	}
	for _, v := range Variants {
		for _, ranks := range []int{2, 4} {
			for _, overlap := range []bool{false, true} {
				for _, loader := range []LoaderMode{LoaderSharded, LoaderGlobalMB} {
					check(v, ranks, overlap, comm.RingRSAG, loader)
				}
			}
		}
	}
	ccl := Variant{Alltoall, cluster.CCLBackend}
	check(ccl, 4, true, comm.Hierarchical, LoaderNone)
	check(ccl, 4, true, comm.BinaryTree, LoaderNone)
}

// TestAutoLossParity extends the parity invariant to Allreduce=Auto: the
// per-bucket (and flat-path) cost-model selection changes only the charged
// time, never the data movement, so the mean shard loss must still match
// the single-socket trainer at 1e-6 for every strategy on both backends
// and through both real loader modes — bucketed (small buckets forcing
// per-bucket selection on real segment volumes) and flat.
func TestAutoLossParity(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)

	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	check := func(v Variant, ranks int, bucketBytes int, loader LoaderMode) {
		t.Helper()
		dc := distTestConfig(cfg, ranks, globalN, iters, v, true)
		dc.Sync = false
		dc.Allreduce = comm.AllreduceAuto
		dc.BucketBytes = bucketBytes
		dc.Loader = loader
		dc.Pools = pools
		dc.Workspaces = wss
		res := mustRun(dc)
		for it := 0; it < iters; it++ {
			var mean float64
			for rk := 0; rk < ranks; rk++ {
				mean += res.Losses[rk][it]
			}
			mean /= float64(ranks)
			if d := math.Abs(mean - ref[it]); d > 1e-6 {
				t.Errorf("%s R=%d bucket=%d %v iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)",
					v.Name(), ranks, bucketBytes, loader, it, mean, ref[it], d)
			}
		}
	}
	for _, v := range Variants {
		for _, loader := range []LoaderMode{LoaderSharded, LoaderGlobalMB} {
			check(v, 4, 4096, loader)
		}
	}
	ccl := Variant{Alltoall, cluster.CCLBackend}
	check(ccl, 2, 4096, LoaderNone)
	check(ccl, 4, FlatBuckets, LoaderNone)
}

// TestDefaultScheduleIsBucketedOverlapped pins the default flip: a
// DistConfig that sets no schedule knob runs the bucketed+overlapped
// pipeline — ar-top/ar-bot labels, no flat "allreduce" label — and beats
// the explicit flat-sync configuration the paper figures pin.
func TestDefaultScheduleIsBucketedOverlapped(t *testing.T) {
	mk := func(sync bool, bucketBytes int) *DistResult {
		dc := DistConfig{
			Cfg:         Large,
			Ranks:       64,
			GlobalN:     Large.GlobalMB,
			Iters:       2,
			Variant:     Variant{Alltoall, cluster.CCLBackend},
			Topo:        fabric.NewPrunedFatTree(64, 12.5e9),
			Socket:      perfmodel.CLX8280,
			Sync:        sync,
			BucketBytes: bucketBytes,
		}
		return mustRun(dc)
	}
	def := mk(false, 0) // all schedule knobs at their zero values
	if def.BusyPerIter["ar-top"] <= 0 || def.BusyPerIter["ar-bot"] <= 0 {
		t.Fatal("default schedule must run the bucketed allreduces (ar-top/ar-bot)")
	}
	if def.BusyPerIter["allreduce"] != 0 {
		t.Fatal("default schedule must not emit the flat 'allreduce' label")
	}
	flatSync := mk(true, FlatBuckets)
	if def.IterSeconds >= flatSync.IterSeconds {
		t.Errorf("default bucketed+overlapped (%.1fms) must beat flat sync (%.1fms)",
			def.IterSeconds*1e3, flatSync.IterSeconds*1e3)
	}
	// The tuned default bucket size must match the explicit constant.
	explicit := mk(false, DefaultBucketBytes)
	if d := math.Abs(def.IterSeconds - explicit.IterSeconds); d > 1e-12 {
		t.Errorf("zero-value BucketBytes must resolve to DefaultBucketBytes: %.6f vs %.6f ms",
			def.IterSeconds*1e3, explicit.IterSeconds*1e3)
	}
}

// TestBucketedReplicasStayInSync extends the replica-sync invariant to the
// bucketed pipeline: per-bucket reductions and per-bucket optimizer slices
// must leave every rank's MLP replica bit-identical.
func TestBucketedReplicasStayInSync(t *testing.T) {
	cfg := tinyConfig()
	dc := distTestConfig(cfg, 4, 64, 3, Variant{Alltoall, cluster.CCLBackend}, true)
	dc.Sync = false
	dc.BucketBytes = 4096
	res := mustRun(dc)
	for rk := 1; rk < 4; rk++ {
		checkMLPClose(t, "bucketed replica sync", res.Models[rk], res.Models[0], 1e-7)
	}
}

// TestExposuresProperty property-tests the Exposures() accounting across
// the whole schedule × algorithm × strategy space: for every label, busy
// splits exactly into exposed + hidden whenever busy ≥ exposed (hidden is
// clamped at zero when per-channel queueing pushes exposure past busy), and
// HiddenShare always lands in [0, 1].
func TestExposuresProperty(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	for _, strat := range []CommStrategy{ScatterList, FusedScatter, Alltoall} {
		for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
			for _, overlap := range []bool{false, true} {
				for _, algo := range append([]comm.AllreduceAlgo{comm.AllreduceAuto}, comm.AllreduceAlgos...) {
					for _, bucketBytes := range []int{FlatBuckets, 1 << 20} {
						dc := distTestConfig(Small, 8, Small.GlobalMB, 2, Variant{strat, backend}, false)
						dc.Sync = !overlap
						dc.Allreduce = algo
						dc.BucketBytes = bucketBytes
						dc.Loader = LoaderSharded
						dc.Pools = pools
						dc.Workspaces = wss
						res := mustRun(dc)
						if len(res.Exposures()) == 0 {
							t.Fatalf("%v/%v overlap=%v %v: no exposures recorded", strat, backend, overlap, algo)
						}
						for _, e := range res.Exposures() {
							if e.Busy < 0 || e.Exposed < 0 || e.Hidden < 0 {
								t.Fatalf("%v/%v overlap=%v %v bucket=%d %s: negative component %+v",
									strat, backend, overlap, algo, bucketBytes, e.Label, e)
							}
							want := e.Busy - e.Exposed
							if want < 0 {
								want = 0
							}
							if math.Abs(e.Hidden-want) > 1e-12 {
								t.Fatalf("%v/%v overlap=%v %v bucket=%d %s: hidden %.12f want %.12f (busy %.12f exposed %.12f)",
									strat, backend, overlap, algo, bucketBytes, e.Label, e.Hidden, want, e.Busy, e.Exposed)
							}
							if e.Busy > e.Exposed && math.Abs(e.Busy-e.Exposed-e.Hidden) > 1e-12 {
								t.Fatalf("%v/%v %s: busy %.12f != exposed %.12f + hidden %.12f",
									strat, backend, e.Label, e.Busy, e.Exposed, e.Hidden)
							}
							if s := e.HiddenShare(); s < 0 || s > 1 {
								t.Fatalf("%v/%v %s: hidden share %v outside [0,1]", strat, backend, e.Label, s)
							}
						}
					}
				}
			}
		}
	}
}
