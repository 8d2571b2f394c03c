package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// scalingCase describes one config's scaling sweep.
type scalingCase struct {
	cfg       core.Config
	strongR   []int
	baseRanks int
	loader    core.LoaderMode
}

func scalingCases() []scalingCase {
	return []scalingCase{
		{core.Small, []int{2, 4, 8}, 1, core.LoaderNone},
		{core.Large, []int{4, 8, 16, 32, 64}, 4, core.LoaderNone},
		{core.MLPerf, []int{2, 4, 8, 16, 26}, 1, core.LoaderGlobalMB},
	}
}

// globalN is cfg's global batch at r ranks: GlobalMB under strong scaling,
// LocalMB per rank under weak scaling.
func globalN(cfg core.Config, weak bool, r int) int {
	if weak {
		return cfg.LocalMB * r
	}
	return cfg.GlobalMB
}

// scheduleCase is one scaling shape the schedule ablations (overlap,
// buckets, autotune) sweep.
type scheduleCase struct {
	scaling string
	cfg     core.Config
	ranks   []int
	weak    bool
	loader  core.LoaderMode
}

// scheduleCases are the Fig. 9 strong- and Fig. 12 weak-scaling shapes the
// schedule ablations run at.
func scheduleCases() []scheduleCase {
	return []scheduleCase{
		{"strong (Fig9)", core.Large, []int{16, 32, 64}, false, core.LoaderNone},
		{"weak (Fig12)", core.Large, []int{16, 32, 64}, true, core.LoaderNone},
		{"weak (Fig12)", core.MLPerf, []int{16, 26}, true, core.LoaderSharded},
	}
}

// cclAlltoall is the headline communication variant of Figs. 9/12.
var cclAlltoall = core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend}

// opaTree is the paper's cluster fabric: a pruned fat-tree of 12.5 GB/s
// OPA links.
func opaTree(ranks int) *fabric.PrunedFatTree { return fabric.NewPrunedFatTree(ranks, 12.5e9) }

// opaConfig is the base recipe of every distributed run on the paper's
// testbed: cfg over ranks CLX-8280 sockets on the OPA fat-tree, one timing
// iteration of the library default schedule (bucketed + overlapped).
// globalN is trimmed to a multiple of ranks (the paper's 26-rank runs shard
// 16K unevenly). Drivers set the knobs their figure varies on the returned
// value.
func opaConfig(cfg core.Config, ranks, globalN int, v core.Variant) core.DistConfig {
	return core.DistConfig{
		Cfg:     cfg,
		Ranks:   ranks,
		GlobalN: globalN - globalN%ranks,
		Iters:   1,
		Variant: v,
		Topo:    opaTree(ranks),
		Socket:  perfmodel.CLX8280,
	}
}

// runDist executes one timing-only distributed run on the OPA cluster.
// The paper figures instrument the synchronous flat-allreduce pipeline
// (§VI-D measures every collective on the critical path), so the schedule
// is pinned there rather than inheriting the bucketed+overlapped default.
func runDist(cfg core.Config, ranks, globalN int, v core.Variant, blocking bool, loader core.LoaderMode, iters int) *core.DistResult {
	dc := opaConfig(cfg, ranks, globalN, v)
	dc.Iters, dc.Blocking, dc.Loader = iters, blocking, loader
	dc.Sync, dc.BucketBytes = true, core.FlatBuckets
	return mustRun(dc)
}

// scalingFig reproduces the strong- (Fig. 9) or weak-scaling (Fig. 12,
// GlobalN = LocalMB × ranks) speed-up and efficiency chart: all four
// communication variants per config and rank count, normalized to the
// optimized baseline — single socket for Small/MLPerf, the 4-rank
// CCL-Alltoall run for Large (which cannot fit fewer sockets), as in §VI-D.
func scalingFig(o Opts, weak bool) *Table {
	t := &Table{
		Title:   "Fig. 9: DLRM strong scaling (speed-up and efficiency vs optimized baseline)",
		Headers: []string{"config", "ranks", "variant", "ms/iter", "speed-up", "efficiency"},
		Notes:   []string{"paper: MLPerf up to 8.5x at 26 sockets (33%); Small/Large 5-6x per 8x sockets (60-71%)"},
	}
	if weak {
		t.Title = "Fig. 12: DLRM weak scaling (speed-up and efficiency vs optimized baseline)"
		t.Notes = []string{"paper: MLPerf 17x at 26 sockets (65%); Large 13.5x per 16x sockets (84%); Small 6.4x on 8 (80%)"}
	}
	iters := o.iters(defaultIters)
	for _, c := range scalingCases() {
		label := fmt.Sprintf("%s (GN=%d)", c.cfg.Name, c.cfg.GlobalMB)
		if weak {
			label = fmt.Sprintf("%s (LN=%d)", c.cfg.Name, c.cfg.LocalMB)
		}
		base := runDist(c.cfg, c.baseRanks, globalN(c.cfg, weak, c.baseRanks), cclAlltoall, false, c.loader, iters).IterSeconds
		for _, r := range c.strongR {
			for _, v := range core.Variants {
				res := runDist(c.cfg, r, globalN(c.cfg, weak, r), v, false, c.loader, iters)
				ratio := base / res.IterSeconds
				speedup, eff := ratio, ratio*float64(c.baseRanks)/float64(r)
				if weak {
					speedup, eff = ratio*float64(r)/float64(c.baseRanks), ratio
				}
				t.AddRow(label, fmt.Sprintf("%dR", r), v.Name(), ms(res.IterSeconds),
					fmt.Sprintf("%.2fx", speedup), pct(eff))
			}
		}
	}
	return t
}

// breakdown builds the per-collective tables of Figs. 10-14 for the Large
// and MLPerf configs, MPI vs CCL, overlap vs blocking, at strong or weak
// scale: the compute/communication split (Figs. 10/13) or, with detail, the
// communication-time break-up into framework pre/post-processing and actual
// wait per collective (Figs. 11/14).
func breakdown(o Opts, title string, weak, detail bool, notes ...string) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"config", "mode", "backend", "ranks", "compute (ms)", "comm exposed (ms)"},
		Notes:   notes,
	}
	if detail {
		t.Headers = append(t.Headers[:4], "a2a-framework", "ar-framework", "a2a-wait", "ar-wait")
	}
	iters := o.iters(defaultIters)
	for _, c := range scalingCases()[1:] {
		for _, blocking := range []bool{false, true} {
			mode := "overlapping"
			if blocking {
				mode = "blocking"
			}
			for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
				for _, r := range c.strongR {
					v := core.Variant{Strategy: core.Alltoall, Backend: backend}
					res := runDist(c.cfg, r, globalN(c.cfg, weak, r), v, blocking, c.loader, iters)
					row := []string{c.cfg.Name, mode, backend.String(), fmt.Sprintf("%dR", r)}
					if detail {
						row = append(row, ms(res.PrepPerIter["alltoall"]), ms(res.PrepPerIter["allreduce"]),
							ms(res.WaitPerIter["alltoall"]), ms(res.WaitPerIter["allreduce"]))
					} else {
						row = append(row, ms(res.ComputeAndPrepPerIter()),
							ms(res.TotalCommPerIter()))
					}
					t.AddRow(row...)
				}
			}
		}
	}
	return t
}

// fig15 reproduces the 8-socket shared-memory strong scaling: per config
// and socket count, the compute / allreduce / alltoall composition over the
// UPI twisted hypercube.
func fig15(o Opts) *Table {
	t := &Table{
		Title:   "Fig. 15: strong scaling on the 8-socket shared-memory system (UPI twisted hypercube)",
		Headers: []string{"config", "ranks", "compute (ms)", "allreduce (ms)", "alltoall (ms)"},
	}
	topo := fabric.NewTwistedHypercube(22e9)
	cases := []struct {
		cfg   core.Config
		ranks []int
	}{
		{core.Small, []int{1, 2, 4, 8}},
		{core.Large, []int{4, 8}}, // needs ≥4 sockets for capacity
		{core.MLPerf, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		for _, r := range c.ranks {
			res := mustRun(core.DistConfig{
				Cfg:         c.cfg,
				Ranks:       r,
				GlobalN:     c.cfg.GlobalMB - c.cfg.GlobalMB%r,
				Iters:       o.iters(defaultIters),
				Variant:     cclAlltoall,
				Blocking:    true, // expose components for the stacked bars
				Topo:        topo,
				Socket:      perfmodel.SKX8180,
				Sync:        true, // instrumented flat-sync schedule, as in the paper
				BucketBytes: core.FlatBuckets,
			})
			compute := res.ComputeAndPrepPerIter()
			t.AddRow(fmt.Sprintf("%s (GN=%d)", c.cfg.Name, c.cfg.GlobalMB), fmt.Sprintf("%dR", r),
				ms(compute), ms(res.WaitPerIter["allreduce"]), ms(res.WaitPerIter["alltoall"]))
		}
	}
	t.AddNote("paper: alltoall does not improve from 4 to 8 sockets — 2-hop pairs contend on UPI links")
	return t
}
