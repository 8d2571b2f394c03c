package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
)

// bucketCount returns how many allreduce buckets the config's two MLPs
// produce at the given bucket size — the same plan the trainer builds,
// recomputed from the same per-layer volume model (core.MLPLayerGradBytes)
// for the figure's "buckets" column.
func bucketCount(cfg core.Config, bucketBytes int) (top, bot int) {
	plan := func(sizes []int) int {
		var layers []float64
		for i := 0; i+1 < len(sizes); i++ {
			layers = append(layers, core.MLPLayerGradBytes(sizes, i))
		}
		return len(comm.PlanBuckets(layers, float64(bucketBytes)).Buckets)
	}
	return plan(cfg.TopSizes()), plan(cfg.BotSizes())
}

// bucketFig reproduces Fig. 2's bucketed overlap as an ablation: the
// same strong- and weak-scaling runs under flat vs per-layer-bucketed
// gradient allreduce, each synchronous and overlapped. Flat rows report the
// single "allreduce" label's exposed/busy split; bucketed rows report the
// per-MLP "ar-top"/"ar-bot" labels — the headline being that under
// bucketed+overlapped both MLP allreduces all but vanish from the critical
// path, because every bucket is issued the moment its layers' backward
// completes and drains across round-robined CCL channels behind the
// remaining backward compute.
func bucketFig(o Opts) *Table {
	t := &Table{
		Title: "Bucketed gradient allreduce (Fig. 2): flat vs per-layer buckets × sync vs overlapped " +
			"(CCL Alltoall; exposed/busy ms per allreduce label)",
		Headers: []string{"scaling", "config", "ranks", "schedule", "buckets", "ms/iter", "vs flat-sync",
			"ar exp/busy", "ar-top exp/busy", "ar-bot exp/busy"},
	}
	iters := o.iters(defaultIters)
	sw := newDistSweep()
	defer sw.close()
	modes := []struct {
		name        string
		overlap     bool
		bucketBytes int
	}{
		{"flat sync", false, core.FlatBuckets},
		{"bucketed sync", false, core.DefaultBucketBytes},
		{"flat overlapped", true, core.FlatBuckets},
		{"bucketed overlapped", true, core.DefaultBucketBytes},
	}
	for _, c := range scheduleCases() {
		topB, botB := bucketCount(c.cfg, core.DefaultBucketBytes)
		for _, r := range c.ranks {
			var flatSync float64
			for _, m := range modes {
				dc := sw.opaConfig(c.cfg, r, globalN(c.cfg, c.weak, r), cclAlltoall)
				dc.Iters, dc.Loader = iters, c.loader
				dc.Sync, dc.BucketBytes = !m.overlap, m.bucketBytes
				res := mustRun(dc)
				vs := "-"
				if m.name == "flat sync" {
					flatSync = res.IterSeconds
				} else {
					vs = delta(res.IterSeconds, flatSync)
				}
				buckets := "-"
				if m.bucketBytes > 0 {
					buckets = fmt.Sprintf("%d+%d", topB, botB)
				}
				t.AddRow(c.scaling, c.cfg.Name, fmt.Sprintf("%dR", r), m.name, buckets,
					ms(res.IterSeconds), vs,
					expCell(res, "allreduce"), expCell(res, "ar-top"), expCell(res, "ar-bot"))
			}
		}
	}
	t.AddNote("paper Fig. 2 / §IV-A: each MLP layer's gradient allreduce starts as soon as that layer's " +
		"backward completes, so the reductions hide behind the remaining backward GEMMs")
	t.AddNote("buckets coalesce layers up to %d MiB of gradients (paper-scale volumes); "+
		"under the overlapped schedule consecutive buckets round-robin over CCL channels 0-2", core.DefaultBucketBytes>>20)
	t.AddNote("%s", "flat rows carry the single \"allreduce\" label; bucketed rows split it into ar-top/ar-bot — "+
		"per-bucket waits land on that bucket's slice of the SGD")
	return t
}
