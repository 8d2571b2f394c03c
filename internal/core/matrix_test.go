package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/embstore"
)

// The configuration matrix every distributed test draws from (see
// docs/ITERATION.md, "How the iteration is tested"). A point picks one value
// per axis; point.config makes it a timing run at a figure shape or a
// functional run of tinyConfig. A test's matrix is a sub-product (points.x)
// handed to a hook: checkParity, checkZeroAllocs, checkEngines,
// checkExposures, the plan invariants, the ordering table.

// The axes. Value 0 of each is distTestConfig's setting: a point that names
// only some axes runs the paper's flat-sync schedule on the rest.
const (
	axShape      = iota // timingShapes, or funcRanks of tinyConfig
	axVariant           // allVariants: strategy × backend
	axSync              // Sync, overlapped
	axBucket            // FlatBuckets, 0 (DefaultBucketBytes), a small size
	axLoader            // LoaderNone, LoaderGlobalMB, LoaderSharded
	axTier              // in RAM, tiered embedding store
	axCheckpoint        // none, every 2 iterations
	axAllreduce         // matrixAlgos
	axContention        // off, on
	axBlocking          // off, on
	nAxes
)

var (
	timingShapes = []struct {
		cfg   Config
		ranks int
	}{{Small, 4}, {MLPerf, 26}, {Large, 64}}
	funcRanks = []int{2, 4}
	// allVariants is every strategy × backend pair, Variants' four first.
	allVariants = append(Variants[:len(Variants):len(Variants)],
		Variant{ScatterList, cluster.CCLBackend}, Variant{FusedScatter, cluster.CCLBackend})
	matrixAlgos = []comm.AllreduceAlgo{comm.RingRSAG, comm.Hierarchical, comm.BinaryTree, comm.AllreduceAuto}
	axisLen     = [nAxes]int{len(timingShapes), len(allVariants), 2, 3, 3, 2, 2, len(matrixAlgos), 2, 2}
)

// paper selects Variants' four values of axVariant.
var paper = []int{0, 1, 2, 3}

type point struct {
	functional bool
	at         [nAxes]int
}

func (p point) len(ax int) int {
	if ax == axShape && p.functional {
		return len(funcRanks)
	}
	return axisLen[ax]
}

// config is the point's run: distTestConfig's timing run at its shape over
// the global minibatch for four iterations (checkpoints after the second and
// the fourth), or its functional run of tinyConfig for three iterations of
// 64 samples.
func (p point) config() DistConfig {
	v := allVariants[p.at[axVariant]]
	var dc DistConfig
	small, cache := 1<<20, 64<<20
	if p.functional {
		cfg := tinyConfig()
		dc = distTestConfig(cfg, funcRanks[p.at[axShape]], 64, 3, v, true)
		// Buckets spanning layer groups of the tiny MLPs; an eviction-heavy cache.
		small, cache = 4096, 8*(4*cfg.EmbDim+embstore.RowOverheadBytes)
	} else {
		sh := timingShapes[p.at[axShape]]
		dc = distTestConfig(sh.cfg, sh.ranks, sh.cfg.GlobalMB/sh.ranks*sh.ranks, 4, v, false)
	}
	dc.Sync = p.at[axSync] == 0
	dc.BucketBytes = []int{FlatBuckets, 0, small}[p.at[axBucket]]
	dc.Loader = LoaderMode(p.at[axLoader])
	if p.at[axTier] == 1 {
		dc.EmbCacheBytes, dc.ColdTierBW = cache, DefaultColdTierBW
	}
	dc.seg.ckptEvery = 2 * p.at[axCheckpoint]
	dc.Allreduce = matrixAlgos[p.at[axAllreduce]]
	dc.Contention = p.at[axContention] == 1
	dc.Blocking = p.at[axBlocking] == 1
	return dc
}

type points []point

// tm and tiny are the origins: Small on 4 ranks and tinyConfig on 2, MPI
// ScatterList, every other axis at value 0.
var tm, tiny = points{{}}, points{{functional: true}}

// x crosses ps with the given values of axis ax — all of them when none are
// given.
func (ps points) x(ax int, vals ...int) points {
	if len(vals) == 0 {
		for v := range ps[0].len(ax) {
			vals = append(vals, v)
		}
	}
	out := make(points, 0, len(ps)*len(vals))
	for _, p := range ps {
		for _, v := range vals {
			p.at[ax] = v
			out = append(out, p)
		}
	}
	return out
}

func (ps points) configs() []DistConfig {
	dcs := make([]DistConfig, len(ps))
	for i, p := range ps {
		dcs[i] = p.config()
	}
	return dcs
}

// sample is the run-based view: n points at a fixed stride through the full
// cross product (20 736 timing, 13 824 functional configurations) — the
// golden-ratio fraction of its size, so neighbours differ on every axis,
// nudged to share no factor with it (axes have 2, 3, 4 or 6 values).
func (ps points) sample(n int) points {
	for ax := range nAxes {
		ps = ps.x(ax)
	}
	stride := len(ps) * 618 / 1000
	for stride%2 == 0 || stride%3 == 0 {
		stride++
	}
	out := make(points, n)
	for i := range out {
		out[i] = ps[i*stride%len(ps)]
	}
	return out
}

var timingSample, funcSample = tm.sample(10), tiny.sample(10)

// forEachPlanConfig is the static view: every timing configuration of the
// axes the plan builder reads (the algorithm only rides on the steps;
// contention and blocking are the engine's), 1296 plans.
func forEachPlanConfig(f func(name string, dc DistConfig)) {
	for _, p := range tm.x(axShape).x(axVariant).x(axSync).x(axBucket).x(axLoader).x(axTier).x(axCheckpoint) {
		dc := p.config()
		f(label(dc), dc)
	}
}

// label names a configuration in failure messages.
func label(dc DistConfig) string {
	mode := "timing"
	if dc.RunCfg != nil {
		mode = "functional"
	}
	return fmt.Sprintf("%s %s/%dR/N=%d/%s/sync=%v/bucket=%d/loader=%v/cache=%d/ckpt=%d/%v/contention=%v/blocking=%v",
		mode, dc.Cfg.Name, dc.Ranks, dc.GlobalN, dc.Variant.Name(), dc.Sync, dc.BucketBytes, dc.Loader,
		dc.EmbCacheBytes, dc.seg.ckptEvery, dc.Allreduce, dc.Contention, dc.Blocking)
}

// TestSampleHitsEveryAxisValue: the run-based checks see every value of
// every axis, in timing and in functional mode, and only configurations
// Validate accepts.
func TestSampleHitsEveryAxisValue(t *testing.T) {
	for _, s := range []points{timingSample, funcSample} {
		for ax := range nAxes {
			seen := map[int]bool{}
			for _, p := range s {
				seen[p.at[ax]] = true
			}
			if len(seen) != s[0].len(ax) {
				t.Errorf("functional=%v: axis %d takes %d of its %d values in the sample", s[0].functional, ax, len(seen), s[0].len(ax))
			}
		}
		for _, dc := range s.configs() {
			if err := dc.Validate(); err != nil {
				t.Errorf("%s: %v", label(dc), err)
			}
		}
	}
}
