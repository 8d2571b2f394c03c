package experiments

import (
	"fmt"

	"repro/internal/core"
)

// loaderFig contrasts the §VI-D2 data-loader artifact with the
// sharded streaming pipeline on the MLPerf weak-scaling sweep — the
// reproducible version of the Fig. 13 discussion: under the artifact every
// rank reads the full global minibatch, so loader time grows linearly with
// the rank count (≈20 ms at 26 ranks); the per-rank sharded loader reads
// only its sample slice plus its owned tables' index columns, pinning
// loader time at ≈2 local shares regardless of scale.
func loaderFig(o Opts) *Table {
	t := &Table{
		Title: "Data pipeline: §VI-D2 global-read loader artifact vs sharded per-rank streaming loader " +
			"(MLPerf weak scaling, CCL Alltoall)",
		Headers: []string{"config", "ranks", "loader", "ms/iter", "loader ms/iter", "loader share"},
	}
	sw := newDistSweep()
	defer sw.close()
	cfg := core.MLPerf
	iters := o.iters(defaultIters)
	for _, r := range []int{2, 4, 8, 16, 26} {
		for _, mode := range []core.LoaderMode{core.LoaderGlobalMB, core.LoaderSharded} {
			res := sw.runDist(cfg, r, globalN(cfg, true, r), cclAlltoall, false, mode, iters)
			loader := res.PrepPerIter["loader"]
			t.AddRow(fmt.Sprintf("%s (LN=%d)", cfg.Name, cfg.LocalMB), fmt.Sprintf("%dR", r),
				mode.String(), ms(res.IterSeconds), ms(loader), pct(loader/res.IterSeconds))
		}
	}
	t.AddNote("artifact: loader grows with GN=LN·R (the paper's MLPerf weak-scaling distortion); " +
		"sharded: flat at ~2 local shares (sample slice + owned-table columns)")
	return t
}
