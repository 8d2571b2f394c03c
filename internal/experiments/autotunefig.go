package experiments

import (
	"fmt"

	"repro/internal/core"
)

// autotuneFig is the self-tuning communication-schedule figure: at every
// Fig. 9/12 scale, core.AutotuneDistConfig probes every schedule × bucket
// size × allreduce algorithm × channel count against the virtual-time model
// and the table compares its pick with the hand-picked default (bucketed +
// overlapped, 64 MiB buckets, ring) the library ships. The incumbent is
// probed too and wins ties, so "tuned" is never worse than "default" under
// the model; where the defaults are already optimal for a shape the gain is
// 0 and the schedule column names the incumbent. o.Iters is the probe
// budget and the measurement length the table reports.
func autotuneFig(o Opts) *Table {
	t := &Table{
		Title: "Self-tuning communication schedule: autotuned vs default " +
			"(bucketed+overlapped, 64 MiB, ring) at every Fig. 9/12 scale (CCL Alltoall)",
		Headers: []string{"scaling", "config", "ranks", "default ms/iter", "tuned ms/iter",
			"delta", "tuned schedule"},
	}
	iters := o.iters(defaultIters)
	sw := newDistSweep()
	defer sw.close()
	for _, c := range scheduleCases() {
		for _, r := range c.ranks {
			// Schedule knobs left at their zero values: the incumbent the
			// tuner must beat IS the shipped default.
			base := sw.opaConfig(c.cfg, r, globalN(c.cfg, c.weak, r), cclAlltoall)
			base.Iters, base.Loader = iters, c.loader
			_, rep := core.AutotuneDistConfig(base, core.AutotuneOpts{FinalIters: iters})
			t.AddRow(c.scaling, c.cfg.Name, fmt.Sprintf("%dR", r),
				ms(rep.BaselineSeconds), ms(rep.TunedSeconds),
				delta(rep.TunedSeconds, rep.BaselineSeconds),
				rep.Schedule)
		}
	}
	t.AddNote("search space: {overlapped, sync} × {flat, 16-256 MiB buckets} × "+
		"{ring, halving, flat, hier, tree, auto} × {1-3 channels}; every candidate probed "+
		"once for %d iterations", iters)
	t.AddNote("%s", "the incumbent is probed too and kept on a tie, so tuned is never worse "+
		"than default under the virtual-time model")
	return t
}
