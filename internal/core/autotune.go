package core

import (
	"cmp"
	"fmt"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/comm"
)

// The online schedule autotuner. Which communication schedule is fastest —
// synchronous or overlapped, flat or bucketed and at what bucket size,
// which allreduce cost model, how many CCL channels the buckets round-robin
// over — depends on the workload shape (config, rank count, fabric,
// loader). Rather than hand-picking per shape, AutotuneDistConfig probes
// candidate schedules against the virtual-time model with a few timing-mode
// iterations each, under a successive-halving budget: every candidate gets
// a cheap probe, survivors re-run at doubled budgets, and the full budget
// decides among the contenders.

// AutotuneOpts bounds the schedule search. The zero value is the default
// budget: a 4-iteration deciding round over the full candidate space. The
// first round always probes 1 iteration.
type AutotuneOpts struct {
	// FinalIters is the probe length of the deciding round (default 4).
	FinalIters int
	// MaxCandidates caps the first round's pool by uniform sampling from a
	// fixed counter-based stream, so equal options replay the identical
	// search (0 = probe the full space). The incumbent schedule always
	// enters regardless.
	MaxCandidates int
}

// AutotuneReport describes what the search measured.
type AutotuneReport struct {
	Candidates      int     // size of the enumerated schedule space
	Probed          int     // candidates that entered the first round
	Probes          int     // distinct (candidate, budget) probe runs
	BaselineSeconds float64 // incumbent schedule's virtual s/iter at the final budget
	TunedSeconds    float64 // chosen schedule's virtual s/iter at the final budget
	Schedule        string  // human-readable chosen schedule
}

// Gain returns the fractional virtual-time improvement over the incumbent
// schedule (0.1 = 10% faster; 0 when the incumbent was kept).
func (r *AutotuneReport) Gain() float64 {
	if r.BaselineSeconds <= 0 {
		return 0
	}
	return 1 - r.TunedSeconds/r.BaselineSeconds
}

// scheduleCandidate is one point of the searched schedule space.
type scheduleCandidate struct {
	sync        bool
	bucketBytes int // DistConfig semantics: FlatBuckets = flat buffers
	algo        comm.AllreduceAlgo
	channels    int // bucket channel-set size (0 where the knob is inert)
}

// autotuneBucketSizes is the BucketBytes sweep: flat, then a power-of-two
// ladder around the hand-tuned DefaultBucketBytes.
var autotuneBucketSizes = []int{
	FlatBuckets, 16 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20,
}

// scheduleCandidates enumerates the space: schedule × bucket size ×
// allreduce algorithm (the five concrete cost models plus per-bucket Auto),
// and — where buckets actually round-robin, i.e. overlapped+bucketed — the
// channel-set size 1..3. Elsewhere the channel knob is inert and pinned to
// 0 so equivalent configurations are not probed twice.
func scheduleCandidates() []scheduleCandidate {
	algos := append([]comm.AllreduceAlgo{comm.AllreduceAuto}, comm.AllreduceAlgos...)
	var out []scheduleCandidate
	for _, sync := range []bool{false, true} {
		for _, bb := range autotuneBucketSizes {
			for _, algo := range algos {
				if !sync && bb != FlatBuckets {
					for ch := 1; ch <= len(defaultBucketChannels); ch++ {
						out = append(out, scheduleCandidate{sync, bb, algo, ch})
					}
				} else {
					out = append(out, scheduleCandidate{sync, bb, algo, 0})
				}
			}
		}
	}
	return out
}

// apply returns dc with the candidate's schedule knobs set.
func (c scheduleCandidate) apply(dc DistConfig) DistConfig {
	dc.Sync = c.sync
	dc.BucketBytes = c.bucketBytes
	dc.Allreduce = c.algo
	dc.bucketChannels = c.channels
	return dc
}

// String renders the candidate for reports and figure cells.
func (c scheduleCandidate) String() string {
	sched := "overlapped"
	if c.sync {
		sched = "sync"
	}
	buckets := "flat"
	if c.bucketBytes != FlatBuckets {
		buckets = fmt.Sprintf("%dMiB buckets", c.bucketBytes>>20)
	}
	s := fmt.Sprintf("%s, %s, %s", sched, buckets, c.algo.ShortString())
	if c.channels > 0 {
		s += fmt.Sprintf(", %dch", c.channels)
	}
	return s
}

// incumbent maps dc's current schedule onto the enumeration's normal form
// (resolved bucket size, channel-set length where the knob is live).
func incumbent(dc *DistConfig) scheduleCandidate {
	c := scheduleCandidate{sync: dc.Sync, algo: dc.Allreduce, bucketBytes: FlatBuckets}
	if eb := dc.EffectiveBucketBytes(); eb > 0 {
		c.bucketBytes = eb
	}
	if !c.sync && c.bucketBytes != FlatBuckets {
		c.channels = cmp.Or(dc.bucketChannels, len(defaultBucketChannels))
	}
	return c
}

// AutotuneDistConfig searches the communication-schedule space for the
// fastest configuration of dc's workload shape and returns dc with the
// winning schedule knobs applied, plus a report of what the search
// measured. Probes are timing-mode runs (RunCfg/Dataset stripped) sharing
// dc's pools and workspaces — the workspace key excludes every schedule
// knob, so all candidates probe through the same buffers and probing
// allocates nothing per iteration after the first probes warm them. The
// result is never worse than dc's incumbent schedule under the model: the
// search winner meets the incumbent head-to-head at the final budget and
// the incumbent is kept on a tie.
func AutotuneDistConfig(dc DistConfig, opts AutotuneOpts) (DistConfig, *AutotuneReport) {
	final := opts.FinalIters
	if final <= 0 {
		final = 4
	}

	cands := scheduleCandidates()
	inc := incumbent(&dc)
	incIdx := -1
	for i, c := range cands {
		if c == inc {
			incIdx = i
			break
		}
	}
	if incIdx < 0 { // e.g. an off-ladder explicit bucket size
		incIdx = len(cands)
		cands = append(cands, inc)
	}

	probeCfg := dc
	probeCfg.RunCfg, probeCfg.Dataset = nil, nil
	if probeCfg.Pools == nil {
		pools := cluster.NewPools()
		defer pools.Close()
		probeCfg.Pools = pools
	}
	if probeCfg.Workspaces == nil {
		probeCfg.Workspaces = NewDistWorkspaces()
	}

	type probeKey struct{ cand, iters int }
	memo := make(map[probeKey]float64)
	obj := func(cand, iters int) float64 {
		k := probeKey{cand, iters}
		if v, ok := memo[k]; ok {
			return v
		}
		c := cands[cand].apply(probeCfg)
		c.Iters = iters
		v := mustRun(c).IterSeconds
		memo[k] = v
		return v
	}
	res := autotune.Search(len(cands), obj, autotune.Options{
		ProbeIters:    1,
		FinalIters:    final,
		MaxCandidates: opts.MaxCandidates,
		Include:       []int{incIdx},
	})

	// Head-to-head at the final budget: the incumbent may have been halved
	// away on a cheap probe, so re-probe it (memoized if it survived) and
	// keep it unless the winner is strictly faster.
	base := obj(incIdx, final)
	best, bestT := res.Best, res.BestCost
	if base <= bestT {
		best, bestT = incIdx, base
	}
	rep := &AutotuneReport{
		Candidates:      len(cands),
		Probed:          res.Pool,
		Probes:          len(memo),
		BaselineSeconds: base,
		TunedSeconds:    bestT,
		Schedule:        cands[best].String(),
	}
	return cands[best].apply(dc), rep
}
