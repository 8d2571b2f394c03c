package core

import (
	"cmp"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// The online schedule autotuner. Which communication schedule is fastest —
// synchronous or overlapped, flat or bucketed and at what bucket size,
// which allreduce cost model, how many CCL channels the buckets round-robin
// over — depends on the workload shape (config, rank count, fabric,
// loader). Rather than hand-picking per shape, AutotuneDistConfig probes
// every candidate schedule once against the virtual-time model, each for a
// few timing-mode iterations. The space is 132 candidates and a probe
// costs well under a millisecond of host time, so no search strategy pays
// for itself.

// AutotuneOpts sets the probe budget. The zero value probes every candidate
// for 4 iterations.
type AutotuneOpts struct {
	// FinalIters is the probe length in iterations (default 4).
	FinalIters int
	// MaxCandidates is ignored: every candidate is probed. It is kept so
	// that existing callers still compile.
	MaxCandidates int
}

// AutotuneReport describes what the probes measured.
type AutotuneReport struct {
	Candidates      int     // schedules probed: the enumerated space, plus an off-ladder incumbent
	Probes          int     // probe runs, one per candidate (== Candidates)
	BaselineSeconds float64 // incumbent schedule's virtual s/iter at the probe budget
	TunedSeconds    float64 // chosen schedule's virtual s/iter at the probe budget
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

// AutotuneDistConfig finds the fastest communication schedule for dc's
// workload shape and returns dc with the winning schedule knobs applied,
// plus a report of what it measured. dc must be valid (see Validate): an
// invalid configuration panics in the first probe. Every candidate is probed
// once for opts.FinalIters timing-mode iterations (RunCfg/Dataset stripped),
// the incumbent first; a candidate replaces the best so far only when it is
// strictly faster, so the incumbent wins ties and otherwise the lowest
// index does. The result is therefore never worse than dc's incumbent
// schedule under the model. The probes share dc's pools and workspaces —
// the workspace key excludes every schedule knob, so all candidates probe
// through the same buffers and probing allocates nothing per iteration
// once the first probes have warmed them.
func AutotuneDistConfig(dc DistConfig, opts AutotuneOpts) (DistConfig, *AutotuneReport) {
	final := opts.FinalIters
	if final <= 0 {
		final = 4
	}

	probeCfg := dc
	probeCfg.RunCfg, probeCfg.Dataset = nil, nil
	probeCfg.Iters = final
	if probeCfg.Pools == nil {
		pools := cluster.NewPools()
		defer pools.Close()
		probeCfg.Pools = pools
	}
	if probeCfg.Workspaces == nil {
		probeCfg.Workspaces = NewDistWorkspaces()
	}
	probe := func(c scheduleCandidate) float64 { return mustRun(c.apply(probeCfg)).IterSeconds }

	inc := incumbent(&dc)
	best, base := inc, probe(inc)
	bestT, probes := base, 1
	for _, c := range scheduleCandidates() {
		if c == inc {
			continue
		}
		probes++
		if t := probe(c); t < bestT {
			best, bestT = c, t
		}
	}
	rep := &AutotuneReport{
		Candidates:      probes,
		Probes:          probes,
		BaselineSeconds: base,
		TunedSeconds:    bestT,
		Schedule:        best.String(),
	}
	return best.apply(dc), rep
}
