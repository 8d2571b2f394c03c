package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// Validate checks the configuration for incoherent knob combinations and
// returns a descriptive error instead of letting them surface as silent
// misbehavior (an inert knob pretending to be measured) or a panic deep in
// a rank goroutine. Every Run* entry point calls it; drivers that assemble
// configurations programmatically (sweeps, autotuners) can call it early
// to reject a candidate before paying for pools and workspaces.
func (dc *DistConfig) Validate() error {
	if dc.Ranks < 1 {
		return fmt.Errorf("core: Ranks=%d, want >= 1", dc.Ranks)
	}
	if dc.Iters < 1 {
		return fmt.Errorf("core: Iters=%d, want >= 1", dc.Iters)
	}
	if dc.GlobalN < 1 {
		return fmt.Errorf("core: GlobalN=%d, want >= 1", dc.GlobalN)
	}
	if dc.GlobalN%dc.Ranks != 0 {
		return fmt.Errorf("core: global minibatch %d not divisible by %d ranks", dc.GlobalN, dc.Ranks)
	}
	if err := dc.Cfg.Validate(); err != nil {
		return err
	}
	if dc.Ranks > dc.Cfg.MaxRanks() {
		return fmt.Errorf("core: %d ranks exceeds max %d for %s (one table shard per rank)",
			dc.Ranks, dc.Cfg.MaxRanks(), dc.Cfg.Name)
	}
	if s := dc.Variant.Strategy; s < ScatterList || s > Alltoall {
		return fmt.Errorf("core: unknown comm strategy %d", int(s))
	}
	if b := dc.Variant.Backend; b != cluster.MPIBackend && b != cluster.CCLBackend {
		return fmt.Errorf("core: unknown backend %d", int(b))
	}
	if m := dc.Loader; m < LoaderNone || m > LoaderSharded {
		return fmt.Errorf("core: unknown loader mode %d", int(m))
	}
	if a := dc.Allreduce; a < comm.RingRSAG || a > comm.AllreduceAuto {
		return fmt.Errorf("core: unknown allreduce algorithm %d", int(a))
	}
	if dc.CommCores < 0 {
		return fmt.Errorf("core: CommCores=%d, want >= 0", dc.CommCores)
	}
	if s := dc.Socket; s.Cores < 1 || !(s.PeakFlops > 0 && s.MemBW > 0 && s.GemmEff > 0 && s.EmbedEff > 0) {
		// A zero socket would price every kernel at 0, +Inf or NaN and report
		// it as a measurement.
		return fmt.Errorf("core: Socket %+v: Cores, PeakFlops, MemBW, GemmEff and EmbedEff must all be positive", s)
	}
	if cc := dc.clusterConfig(false).WithDefaults(); cc.CommCores >= dc.Socket.Cores {
		return fmt.Errorf("core: CommCores=%d leaves no compute cores on a %d-core socket",
			cc.CommCores, dc.Socket.Cores)
	}
	if dc.Interference != 0 && dc.Interference < 1 {
		return fmt.Errorf("core: Interference=%v, want >= 1 (or 0 for the backend default)", dc.Interference)
	}
	if dc.Ranks > 1 {
		if dc.Topo == nil {
			return fmt.Errorf("core: %d ranks need a fabric topology for the collectives", dc.Ranks)
		}
		if dc.Topo.NumSockets() < dc.Ranks {
			return fmt.Errorf("core: topology has %d sockets for %d ranks", dc.Topo.NumSockets(), dc.Ranks)
		}
	}
	if dc.BucketBytes < FlatBuckets {
		return fmt.Errorf("core: BucketBytes=%d, want FlatBuckets (%d), 0 (tuned default) or a positive size",
			dc.BucketBytes, FlatBuckets)
	}
	if dc.EmbCacheBytes < 0 {
		return fmt.Errorf("core: EmbCacheBytes=%d, want >= 0", dc.EmbCacheBytes)
	}
	if dc.ColdTierBW < 0 {
		return fmt.Errorf("core: ColdTierBW=%v, want >= 0", dc.ColdTierBW)
	}
	if dc.EmbSkew < 0 {
		return fmt.Errorf("core: EmbSkew=%v, want >= 0", dc.EmbSkew)
	}
	if dc.EmbCacheBytes > 0 && dc.ColdTierBW == 0 {
		// A tiered run must state its cold tier: an implicit bandwidth here
		// would silently set the miss penalty the figure measures.
		return fmt.Errorf("core: EmbCacheBytes set without ColdTierBW — a tiered store needs a cold-tier bandwidth (DefaultColdTierBW is the conventional value)")
	}
	if dc.EmbCacheBytes == 0 {
		// Without a cache budget the rest of the tier knobs are inert —
		// reject rather than silently ignore.
		if dc.ColdTierBW != 0 {
			return fmt.Errorf("core: ColdTierBW set without EmbCacheBytes — no tiered store to charge")
		}
		if dc.EmbSkew != 0 {
			return fmt.Errorf("core: EmbSkew set without EmbCacheBytes — no tiered store to model")
		}
	}
	if dc.RunCfg != nil {
		if err := dc.RunCfg.Validate(); err != nil {
			return fmt.Errorf("core: functional RunCfg: %w", err)
		}
		if dc.Dataset == nil {
			return fmt.Errorf("core: functional mode (RunCfg set) requires a Dataset")
		}
		if dc.RunCfg.Tables != dc.Cfg.Tables {
			return fmt.Errorf("core: functional RunCfg has %d tables, paper-scale Cfg %d — shards would not line up",
				dc.RunCfg.Tables, dc.Cfg.Tables)
		}
		// The bucket plan is carved from Cfg's per-layer volumes and applied
		// to the RunCfg model's gradients layer by layer.
		if dc.EffectiveBucketBytes() > 0 {
			if got, want := len(dc.RunCfg.TopHidden), len(dc.Cfg.TopHidden); got != want {
				return fmt.Errorf("core: bucketed functional run: RunCfg top MLP has %d layers, paper-scale Cfg %d — buckets would not line up",
					got+1, want+1)
			}
			if got, want := len(dc.RunCfg.BotHidden), len(dc.Cfg.BotHidden); got != want {
				return fmt.Errorf("core: bucketed functional run: RunCfg bottom MLP has %d layers, paper-scale Cfg %d — buckets would not line up",
					got+1, want+1)
			}
		}
	}
	return nil
}

// Run validates the configuration and executes the simulated-cluster
// training run — the single entry point for distributed training.
func (dc DistConfig) Run() (*DistResult, error) {
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	return dc.run(), nil
}

// mustRun is Run for configurations this package built itself (the
// autotuner's probes, the tests' fixtures): a Validate error there is a bug,
// so it panics.
func mustRun(dc DistConfig) *DistResult {
	res, err := dc.Run()
	if err != nil {
		panic(err)
	}
	return res
}
