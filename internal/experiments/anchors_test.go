package experiments

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestVirtualAnchors holds the simulator's 18 committed virtual numbers —
// Large over 64 ranks at the Fig. 9 strong- and Fig. 12 weak-scaling shapes,
// one row per schedule, pipeline, tier and subsystem — to the bit. They were
// recorded in PR 10 (docs/PERF.md, "PR 1 → PR 10") and every PR since has
// reproduced them exactly; a change that moves one is a re-baseline and says
// so. Each row is opaConfig plus the knobs it names.
func TestVirtualAnchors(t *testing.T) {
	strong, weak := core.Large.GlobalMB, core.Large.LocalMB*64
	dist := func(globalN int, set func(dc *core.DistConfig)) func() float64 {
		return func() float64 {
			dc := opaConfig(core.Large, 64, globalN, cclAlltoall)
			if set != nil {
				set(&dc)
			}
			return mustRun(dc).IterSeconds * 1e3
		}
	}
	flatSync := func(dc *core.DistConfig) { dc.Sync, dc.BucketBytes = true, core.FlatBuckets }
	sharded := func(dc *core.DistConfig) { dc.Loader = core.LoaderSharded }
	overlap := func(dc *core.DistConfig) { dc.BucketBytes = core.FlatBuckets }
	hier := func(dc *core.DistConfig) { dc.BucketBytes, dc.Allreduce = core.FlatBuckets, comm.Hierarchical }
	tuned := func(dc *core.DistConfig) { *dc, _ = core.AutotuneDistConfig(*dc, core.AutotuneOpts{}) }
	contention := func(dc *core.DistConfig) { dc.Contention = true }

	for _, row := range []struct {
		name string
		want float64 // virtual ms/iter (Serving: virtual p99 ms)
		got  func() float64
	}{
		{"Fig9Strong64R", 306.21284941835825, dist(strong, nil)},
		{"Fig12Weak64R", 546.6140738367169, dist(weak, nil)},
		{"Fig9Strong64RFlatSync", 447.3348780622385, dist(strong, flatSync)},
		{"Fig12Weak64RFlatSync", 615.5257685084057, dist(weak, flatSync)},
		{"Fig9Strong64RSharded", 306.4176494183582, dist(strong, sharded)},
		{"Fig12Weak64RSharded", 547.0236738367169, dist(weak, sharded)},
		{"Fig12Weak64RGlobalMB", 559.7212738367169, dist(weak, func(dc *core.DistConfig) { dc.Loader = core.LoaderGlobalMB })},
		{"Fig9Strong64ROverlap", 423.5374092622385, dist(strong, overlap)},
		{"Fig12Weak64ROverlap", 591.7282997084056, dist(weak, overlap)},
		{"Fig9Strong64RHier", 423.4114092622385, dist(strong, hier)},
		{"Fig12Weak64RHier", 591.6022997084056, dist(weak, hier)},
		{"Fig9Strong64RTuned", 305.91284941835846, dist(strong, tuned)},
		{"Fig12Weak64RTuned", 546.3140738367171, dist(weak, tuned)},
		{"Fig9Strong64RContention", 323.8607612497348, dist(strong, contention)},
		{"Fig12Weak64RContention", 546.6140738367169, dist(weak, contention)},
		{"Fig9Strong64REmbStore", 336.91982911151615, dist(strong, func(dc *core.DistConfig) {
			dc.EmbCacheBytes, dc.ColdTierBW = 256<<20, core.DefaultColdTierBW
		})},
		// SLO policy at 1.5x the modeled capacity, 1024 requests.
		{"Fig9Strong64RServing", 220.75136902264993, func() float64 {
			c := servingScale{core.Large, 64}.base()
			c.Policy = serve.Policy{MaxBatch: 32, MaxWait: 2e-3}
			c.Requests, c.OfferedQPS = 1024, 1
			svc, err := c.ServiceTime(c.Policy.MaxBatch)
			if err != nil {
				t.Fatal(err)
			}
			c.Policy.SLO = 2 * (c.Policy.MaxWait + svc)
			c.OfferedQPS = 1.5 * float64(c.Replicas) * float64(c.Policy.MaxBatch) / svc
			res, err := serve.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			return res.P99 * 1e3
		}},
		// Rank 13 dies after iteration 4 of 8 under a 3-iteration checkpoint
		// cadence: one detect / restore / replay cycle, amortised.
		{"Fig9Strong64RChurn", 1396.4589005158725, func() float64 {
			base := opaConfig(core.Large, 64, strong, cclAlltoall)
			base.Iters = 8
			return mustRunElastic(core.ElasticConfig{
				Base: base,
				Plan: &cluster.FaultPlan{Events: []cluster.FaultEvent{
					{Kind: cluster.RankFail, Iter: 5, Rank: 13},
				}},
				CheckpointEvery: 3,
			}).EffectiveIterSeconds() * 1e3
		}},
	} {
		if got := row.got(); got != row.want {
			t.Errorf("%s: %v virtual ms/iter, want %v", row.name, got, row.want)
		}
	}
}
