package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
)

// overlapMode is one schedule of the overlap ablation.
type overlapMode struct {
	name    string
	overlap bool
	algo    comm.AllreduceAlgo
}

func overlapModes() []overlapMode {
	return []overlapMode{
		{"sync", false, comm.RingRSAG},
		{"overlapped", true, comm.RingRSAG},
		{"overlapped+hier", true, comm.Hierarchical},
	}
}

// expCell formats one label's exposed-vs-busy communication split.
func expCell(res *core.DistResult, label string) string {
	for _, e := range res.Exposures() {
		if e.Label == label {
			if e.Busy == 0 && e.Exposed == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f/%.1f (%.0f%% hid)", e.Exposed*1e3, e.Busy*1e3, e.HiddenShare()*100)
		}
	}
	return "-"
}

// overlapFig reproduces the overlap ablation of §IV-A/§VI-D as a
// first-class figure: the same strong- (Fig. 9) and weak-scaling (Fig. 12)
// runs under three schedules — the instrumented synchronous pipeline
// (backward redistribution waited where issued, loader charged serially),
// the overlap-aware pipeline (backward alltoall issued before the bottom-MLP
// allreduce and hidden behind its backward, waits deferred to the latest
// consumer, loader prefetch-hidden, concurrent collectives on distinct CCL
// channels), and the overlapped pipeline with the hierarchical two-level
// allreduce. Per label the exposed-vs-busy split quantifies exactly how
// much communication each schedule hides.
func overlapFig(o Opts) *Table {
	t := &Table{
		Title: "Overlap ablation: sync vs overlapped pipeline vs overlapped + hierarchical allreduce " +
			"(CCL Alltoall; exposed/busy ms per collective)",
		Headers: []string{"scaling", "config", "ranks", "schedule", "ms/iter", "vs sync",
			"a2a exp/busy", "ar exp/busy", "loader exp/busy"},
	}
	iters := o.iters(defaultIters)
	for _, c := range scheduleCases() {
		for _, r := range c.ranks {
			var sync float64
			for _, m := range overlapModes() {
				// The ablation isolates the schedule, so every arm runs the
				// flat per-MLP gradient buffers rather than the bucketed default.
				dc := opaConfig(c.cfg, r, globalN(c.cfg, c.weak, r), cclAlltoall)
				dc.Iters, dc.Loader = iters, c.loader
				dc.Sync, dc.Allreduce, dc.BucketBytes = !m.overlap, m.algo, core.FlatBuckets
				res := mustRun(dc)
				vs := "-"
				if m.name == "sync" {
					sync = res.IterSeconds
				} else {
					vs = delta(res.IterSeconds, sync)
				}
				t.AddRow(c.scaling, c.cfg.Name, fmt.Sprintf("%dR", r), m.name,
					ms(res.IterSeconds), vs,
					expCell(res, "alltoall"), expCell(res, "allreduce"), expCell(res, "loader"))
			}
		}
	}
	t.AddNote("paper §IV-A: dense-MLP allreduces overlap the sparse backward, embedding alltoalls overlap MLP compute; " +
		"\"the communication is almost completely hidden unless compute is too short\"")
	t.AddNote("overlapped: backward alltoall issued right after the interaction backward and hidden behind the " +
		"bottom-MLP backward; waits deferred to the embedding update / SGD; loader prefetch-hidden (cold start only)")
	t.AddNote("MPI overlap is NOT shown as a win: its unpinned progress thread inflates overlapped compute " +
		"(§VI-D1 interference artifact) — run fig10/fig11 for that story")
	return t
}
