package experiments

import (
	"fmt"

	"repro/internal/core"
)

// AutotuneFigOpts bounds the self-tuning figure's searches.
type AutotuneFigOpts struct {
	// Iters is the deciding probe budget and the measurement length the
	// table reports (default 3, like the other scaling figures).
	Iters int
	// MaxCandidates caps each scale's first search round (0 = probe the
	// full ~130-candidate schedule space). The CI smoke run caps it.
	MaxCandidates int
	// Seed seeds the candidate-sampling stream when capped.
	Seed uint64
}

// DefaultAutotuneFigOpts returns the full-space search budget.
func DefaultAutotuneFigOpts() AutotuneFigOpts { return AutotuneFigOpts{Iters: 3} }

// RunAutotune is the self-tuning communication-schedule figure: at every
// Fig. 9/12 scale, core.AutotuneDistConfig searches schedule × bucket size
// × allreduce algorithm × channel count against the virtual-time model and
// the table compares its pick with the hand-picked default (bucketed +
// overlapped, 64 MiB buckets, ring) the library ships. The tuner's
// head-to-head contract makes "tuned" never worse than "default" under the
// model; where the defaults are already optimal for a shape the gain is 0
// and the schedule column names the incumbent.
func RunAutotune(o AutotuneFigOpts) *Table {
	t := &Table{
		Title: "Self-tuning communication schedule: autotuned vs default " +
			"(bucketed+overlapped, 64 MiB, ring) at every Fig. 9/12 scale (CCL Alltoall)",
		Headers: []string{"scaling", "config", "ranks", "default ms/iter", "tuned ms/iter",
			"delta", "tuned schedule", "probes"},
	}
	sw := newDistSweep()
	defer sw.close()
	for _, c := range scheduleCases() {
		for _, r := range c.ranks {
			// Schedule knobs left at their zero values: the incumbent the
			// tuner must beat IS the shipped default.
			base := sw.opaConfig(c.cfg, r, c.globalN(r), cclAlltoall)
			base.Iters, base.Loader = o.Iters, c.loader
			_, rep := core.AutotuneDistConfig(base, core.AutotuneOpts{
				FinalIters:    o.Iters,
				MaxCandidates: o.MaxCandidates,
				Seed:          o.Seed,
			})
			t.AddRow(c.scaling, c.cfg.Name, fmt.Sprintf("%dR", r),
				ms(rep.BaselineSeconds), ms(rep.TunedSeconds),
				fmt.Sprintf("%+.1f%%", (rep.TunedSeconds/rep.BaselineSeconds-1)*100),
				rep.Schedule, fmt.Sprintf("%d/%d", rep.Probes, rep.Candidates))
		}
	}
	t.AddNote("search space: {overlapped, sync} × {flat, 16-256 MiB buckets} × "+
		"{ring, halving, flat, hier, tree, auto} × {1-3 channels}; successive halving, "+
		"deciding round at %d iterations", o.Iters)
	t.AddNote("%s", "the tuner meets the incumbent head-to-head at the final budget, so tuned is "+
		"never worse than default under the virtual-time model; probes counts distinct "+
		"(candidate, budget) timing-mode runs")
	return t
}
