package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// ScalingOpts controls the simulated multi-socket experiments (Figs. 9-14).
type ScalingOpts struct {
	Iters int
}

// DefaultScalingOpts returns the default iteration count.
func DefaultScalingOpts() ScalingOpts { return ScalingOpts{Iters: 3} }

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

// scheduleCase is one scaling shape the schedule ablations (overlap,
// buckets, autotune) sweep.
type scheduleCase struct {
	scaling string
	cfg     core.Config
	ranks   []int
	weak    bool
	loader  core.LoaderMode
}

// globalN is the case's global batch at r ranks.
func (c scheduleCase) globalN(r int) int {
	if c.weak {
		return c.cfg.LocalMB * r
	}
	return c.cfg.GlobalMB
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

// distSweep owns the per-rank pools and workspaces a figure's many
// DistConfig.Run calls share, so worker goroutines and comm buffers persist
// across the whole sweep (see docs/PERF.md for the ownership rules).
type distSweep struct {
	pools *cluster.Pools
	wss   *core.DistWorkspaces
}

func newDistSweep() *distSweep {
	return &distSweep{pools: cluster.NewPools(), wss: core.NewDistWorkspaces()}
}

// close shuts the sweep's rank pools down; the workspaces are plain buffers
// reclaimed by the GC.
func (sw *distSweep) close() { sw.pools.Close() }

// cclAlltoall is the headline communication variant of Figs. 9/12.
var cclAlltoall = core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend}

// opaTree is the paper's cluster fabric: a pruned fat-tree of 12.5 GB/s
// OPA links.
func opaTree(ranks int) *fabric.PrunedFatTree { return fabric.NewPrunedFatTree(ranks, 12.5e9) }

// opaConfig is the base recipe of every distributed run on the paper's
// testbed: cfg over ranks CLX-8280 sockets on the OPA fat-tree, one timing
// iteration of the library default schedule (bucketed + overlapped), on the
// sweep's pools and workspaces. globalN is trimmed to a multiple of ranks
// (the paper's 26-rank runs shard 16K unevenly). Drivers set the knobs
// their figure varies on the returned value.
func (sw *distSweep) opaConfig(cfg core.Config, ranks, globalN int, v core.Variant) core.DistConfig {
	return core.DistConfig{
		Cfg:        cfg,
		Ranks:      ranks,
		GlobalN:    globalN - globalN%ranks,
		Iters:      1,
		Variant:    v,
		Topo:       opaTree(ranks),
		Socket:     perfmodel.CLX8280,
		Pools:      sw.pools,
		Workspaces: sw.wss,
	}
}

// runDist executes one timing-only distributed run on the OPA cluster.
// The paper figures instrument the synchronous flat-allreduce pipeline
// (§VI-D measures every collective on the critical path), so the schedule
// is pinned there rather than inheriting the bucketed+overlapped default.
func (sw *distSweep) runDist(cfg core.Config, ranks, globalN int, v core.Variant, blocking bool, loader core.LoaderMode, iters int) *core.DistResult {
	dc := sw.opaConfig(cfg, ranks, globalN, v)
	dc.Iters, dc.Blocking, dc.Loader = iters, blocking, loader
	dc.Sync, dc.BucketBytes = true, core.FlatBuckets
	return mustRun(dc)
}

// baselineSeconds returns each config's baseline iteration time: optimized
// single socket for Small/MLPerf, the 4-rank CCL-Alltoall run for Large
// (which cannot fit fewer sockets), as in §VI-D.
func baselineSeconds(sw *distSweep, c scalingCase, globalN func(r int) int, iters int) float64 {
	return sw.runDist(c.cfg, c.baseRanks, globalN(c.baseRanks), cclAlltoall, false, c.loader, iters).IterSeconds
}

// RunFig9 reproduces the strong-scaling speed-up and efficiency chart: all
// four communication variants per config and rank count, normalized to the
// optimized baseline.
func RunFig9(o ScalingOpts) *Table {
	t := &Table{
		Title:   "Fig. 9: DLRM strong scaling (speed-up and efficiency vs optimized baseline)",
		Headers: []string{"config", "ranks", "variant", "ms/iter", "speed-up", "efficiency"},
	}
	sw := newDistSweep()
	defer sw.close()
	for _, c := range scalingCases() {
		gn := func(int) int { return c.cfg.GlobalMB }
		base := baselineSeconds(sw, c, gn, o.Iters)
		for _, r := range c.strongR {
			for _, v := range core.Variants {
				res := sw.runDist(c.cfg, r, c.cfg.GlobalMB, v, false, c.loader, o.Iters)
				speedup := base / res.IterSeconds
				eff := speedup * float64(c.baseRanks) / float64(r)
				t.AddRow(fmt.Sprintf("%s (GN=%d)", c.cfg.Name, c.cfg.GlobalMB),
					fmt.Sprintf("%dR", r), v.Name(), ms(res.IterSeconds),
					fmt.Sprintf("%.2fx", speedup), pct(eff))
			}
		}
	}
	t.AddNote("paper: MLPerf up to 8.5x at 26 sockets (33%%); Small/Large 5-6x per 8x sockets (60-71%%)")
	return t
}

// RunFig12 reproduces the weak-scaling speed-up and efficiency chart
// (GlobalN = LocalMB × ranks).
func RunFig12(o ScalingOpts) *Table {
	t := &Table{
		Title:   "Fig. 12: DLRM weak scaling (speed-up and efficiency vs optimized baseline)",
		Headers: []string{"config", "ranks", "variant", "ms/iter", "speed-up", "efficiency"},
	}
	sw := newDistSweep()
	defer sw.close()
	for _, c := range scalingCases() {
		gn := func(r int) int { return c.cfg.LocalMB * r }
		base := baselineSeconds(sw, c, gn, o.Iters)
		for _, r := range c.strongR {
			for _, v := range core.Variants {
				res := sw.runDist(c.cfg, r, gn(r), v, false, c.loader, o.Iters)
				eff := base / res.IterSeconds
				speedup := eff * float64(r) / float64(c.baseRanks)
				t.AddRow(fmt.Sprintf("%s (LN=%d)", c.cfg.Name, c.cfg.LocalMB),
					fmt.Sprintf("%dR", r), v.Name(), ms(res.IterSeconds),
					fmt.Sprintf("%.2fx", speedup), pct(eff))
			}
		}
	}
	t.AddNote("paper: MLPerf 17x at 26 sockets (65%%); Large 13.5x per 16x sockets (84%%); Small 6.4x on 8 (80%%)")
	return t
}

// breakdown builds the compute/communication split tables of Figs. 10/13.
func breakdown(title string, weak bool, o ScalingOpts, cases []scalingCase) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"config", "mode", "backend", "ranks", "compute (ms)", "comm exposed (ms)"},
	}
	sw := newDistSweep()
	defer sw.close()
	for _, c := range cases {
		for _, blocking := range []bool{false, true} {
			mode := "overlapping"
			if blocking {
				mode = "blocking"
			}
			for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
				for _, r := range c.strongR {
					gn := c.cfg.GlobalMB
					if weak {
						gn = c.cfg.LocalMB * r
					}
					v := core.Variant{Strategy: core.Alltoall, Backend: backend}
					res := sw.runDist(c.cfg, r, gn, v, blocking, c.loader, o.Iters)
					compute := cluster.AddByLabel(res.ComputePerIter, res.PrepPerIter)
					t.AddRow(c.cfg.Name, mode, backend.String(), fmt.Sprintf("%dR", r),
						ms(compute), ms(res.TotalCommPerIter()))
				}
			}
		}
	}
	return t
}

// RunFig10 reproduces the strong-scaling compute/communication breakdown
// for the Large and MLPerf configs, MPI vs CCL, overlap vs blocking.
func RunFig10(o ScalingOpts) *Table {
	cs := scalingCases()
	t := breakdown("Fig. 10: compute/communication break-up, strong scaling", false, o, cs[1:])
	t.AddNote("paper: MPI overlap inflates compute (progress-thread interference); CCL does not")
	return t
}

// RunFig13 reproduces the weak-scaling compute/communication breakdown,
// including the data-loader growth artifact for MLPerf.
func RunFig13(o ScalingOpts) *Table {
	cs := scalingCases()
	t := breakdown("Fig. 13: compute/communication break-up, weak scaling", true, o, cs[1:])
	t.AddNote("paper: MLPerf compute grows with rank count — the loader reads the full global minibatch per rank")
	return t
}

// commBreakdown builds the communication-detail tables of Figs. 11/14.
func commBreakdown(title string, weak bool, o ScalingOpts, cases []scalingCase) *Table {
	t := &Table{
		Title: title,
		Headers: []string{"config", "mode", "backend", "ranks",
			"a2a-framework", "ar-framework", "a2a-wait", "ar-wait"},
	}
	sw := newDistSweep()
	defer sw.close()
	for _, c := range cases {
		for _, blocking := range []bool{false, true} {
			mode := "overlapping"
			if blocking {
				mode = "blocking"
			}
			for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
				for _, r := range c.strongR {
					gn := c.cfg.GlobalMB
					if weak {
						gn = c.cfg.LocalMB * r
					}
					v := core.Variant{Strategy: core.Alltoall, Backend: backend}
					res := sw.runDist(c.cfg, r, gn, v, blocking, c.loader, o.Iters)
					t.AddRow(c.cfg.Name, mode, backend.String(), fmt.Sprintf("%dR", r),
						ms(res.PrepPerIter["alltoall"]), ms(res.PrepPerIter["allreduce"]),
						ms(res.WaitPerIter["alltoall"]), ms(res.WaitPerIter["allreduce"]))
				}
			}
		}
	}
	return t
}

// RunFig11 reproduces the strong-scaling communication-time break-up
// (framework pre/post-processing vs actual wait, per collective).
func RunFig11(o ScalingOpts) *Table {
	cs := scalingCases()
	t := commBreakdown("Fig. 11: communication time break-up, strong scaling", false, o, cs[1:])
	t.AddNote("paper: under MPI+overlap, allreduce completion surfaces at the alltoall wait (in-order queue)")
	return t
}

// RunFig14 reproduces the weak-scaling communication-time break-up.
func RunFig14(o ScalingOpts) *Table {
	cs := scalingCases()
	return commBreakdown("Fig. 14: communication time break-up, weak scaling", true, o, cs[1:])
}

// RunFig15 reproduces the 8-socket shared-memory strong scaling: per config
// and socket count, the compute / allreduce / alltoall composition over the
// UPI twisted hypercube.
func RunFig15(o ScalingOpts) *Table {
	t := &Table{
		Title:   "Fig. 15: strong scaling on the 8-socket shared-memory system (UPI twisted hypercube)",
		Headers: []string{"config", "ranks", "compute (ms)", "allreduce (ms)", "alltoall (ms)"},
	}
	topo := fabric.NewTwistedHypercube(22e9)
	sw := newDistSweep()
	defer sw.close()
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
				Iters:       o.Iters,
				Variant:     cclAlltoall,
				Blocking:    true, // expose components for the stacked bars
				Topo:        topo,
				Socket:      perfmodel.SKX8180,
				Sync:        true, // instrumented flat-sync schedule, as in the paper
				BucketBytes: core.FlatBuckets,
				Pools:       sw.pools,
				Workspaces:  sw.wss,
			})
			compute := cluster.AddByLabel(res.ComputePerIter, res.PrepPerIter)
			t.AddRow(fmt.Sprintf("%s (GN=%d)", c.cfg.Name, c.cfg.GlobalMB), fmt.Sprintf("%dR", r),
				ms(compute), ms(res.WaitPerIter["allreduce"]), ms(res.WaitPerIter["alltoall"]))
		}
	}
	t.AddNote("paper: alltoall does not improve from 4 to 8 sockets — 2-hop pairs contend on UPI links")
	return t
}
