package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
)

// ContentionFigOpts bounds the contention figure's runs and its autotune
// section's search.
type ContentionFigOpts struct {
	// Iters is the timing length of every run (default 3).
	Iters int
	// MaxCandidates caps the autotune-under-contention search round
	// (0 = full space); the CI smoke run caps it.
	MaxCandidates int
	// Seed seeds the candidate sampling when capped.
	Seed uint64
}

// DefaultContentionFigOpts returns the full-depth figure budget.
func DefaultContentionFigOpts() ContentionFigOpts { return ContentionFigOpts{Iters: 3} }

// runDistContention is the figure's runner — Large over 64 ranks, its one
// shape — with explicit topology, schedule, contention knob, and MPI
// interference override.
func (sw *distSweep) runDistContention(globalN int, v core.Variant,
	topo fabric.Topology, iters int, overlap bool, bucketBytes int,
	contention bool, interference float64) *core.DistResult {
	dc := sw.opaConfig(core.Large, 64, globalN, v)
	dc.Topo, dc.Iters = topo, iters
	dc.Sync, dc.BucketBytes = !overlap, bucketBytes
	dc.Contention, dc.Interference = contention, interference
	return mustRun(dc)
}

// RunContentionFig is the contention-aware fabric figure: what the virtual
// cluster's collectives cost once simultaneously-in-flight operations have
// to share bottleneck links instead of each being priced against an empty
// fabric. Sections:
//
//	schedule   — flat-sync vs bucketed+overlapped, contention off/on, at the
//	             Fig. 9/12 64-rank scales: overlapping bucket allreduces on
//	             CCL channels 0-2 now pay for the shared 2:1 trunk, so the
//	             overlap win shrinks — but survives.
//	trunk      — the same pair under contention across trunk oversubscription
//	             (32 = non-blocking … 4 uplinks = 8:1) via
//	             fabric.NewPrunedFatTreeUplinks.
//	straggler  — a derated trunk (fabric.NewDegraded) under contention: a
//	             single slow cable drags every concurrent collective.
//	autotune   — core.AutotuneDistConfig with Contention on: honest link
//	             sharing shifts which schedule wins.
//	§VI-D1     — the MPI-interference artifact two ways: the paper's flat
//	             compute-inflation factor (1.3 vs off) next to the CCL
//	             link-level mechanics (contention off vs on), the same
//	             "communication interferes with the rest of the iteration"
//	             story derived from shared links instead of a constant.
func RunContentionFig(o ContentionFigOpts) *Table {
	t := &Table{
		Title: "Contention-aware fabric: concurrent collectives share bottleneck links " +
			"(Large, 64R, CCL Alltoall unless noted)",
		Headers: []string{"section", "scaling", "fabric", "schedule", "contention", "ms/iter", "delta"},
	}
	sw := newDistSweep()
	defer sw.close()
	const ranks = 64
	tree := opaTree(ranks)

	type sched struct {
		name    string
		overlap bool
		bb      int
	}
	flatSync := sched{"flat-sync", false, core.FlatBuckets}
	bucketed := sched{"bucketed+overlapped", true, 0}

	// Section (a): schedule × contention at both Fig. 9/12 scales.
	scales := []struct {
		name    string
		globalN int
	}{
		{"strong (Fig9)", core.Large.GlobalMB},
		{"weak (Fig12)", core.Large.LocalMB * ranks},
	}
	for _, sc := range scales {
		for _, s := range []sched{flatSync, bucketed} {
			var off float64
			for _, cont := range []bool{false, true} {
				res := sw.runDistContention(sc.globalN, cclAlltoall, tree,
					o.Iters, s.overlap, s.bb, cont, 0)
				delta := "-"
				if !cont {
					off = res.IterSeconds
				} else {
					delta = fmt.Sprintf("%+.1f%%", (res.IterSeconds/off-1)*100)
				}
				t.AddRow("schedule", sc.name, "2:1 trunk", s.name, onOff(cont),
					ms(res.IterSeconds), delta)
			}
		}
	}

	// Section (b): trunk oversubscription sweep, contention on.
	for _, uplinks := range []int{32, 16, 8, 4} {
		topo := fabric.NewPrunedFatTreeUplinks(ranks, 12.5e9, uplinks)
		label := fmt.Sprintf("%d uplinks (%s)", uplinks, trunkRatio(uplinks))
		var fs float64
		for _, s := range []sched{flatSync, bucketed} {
			res := sw.runDistContention(core.Large.GlobalMB, cclAlltoall, topo,
				o.Iters, s.overlap, s.bb, true, 0)
			delta := "-"
			if s.name == flatSync.name {
				fs = res.IterSeconds
			} else {
				delta = fmt.Sprintf("%+.1f%%", (res.IterSeconds/fs-1)*100)
			}
			t.AddRow("trunk", "strong (Fig9)", label, s.name, "on", ms(res.IterSeconds), delta)
		}
	}

	// Section (c): straggler trunk link via fabric.NewDegraded.
	var healthy float64
	for _, factor := range []float64{1.0, 0.5, 0.25} {
		topo := fabric.Topology(tree)
		label := "healthy"
		if factor < 1 {
			factors := map[int]float64{}
			for _, id := range tree.TrunkLinks() {
				factors[id] = factor
			}
			topo = fabric.NewDegraded(tree, factors)
			label = fmt.Sprintf("trunk @ %.0f%%", factor*100)
		}
		res := sw.runDistContention(core.Large.GlobalMB, cclAlltoall, topo,
			o.Iters, bucketed.overlap, bucketed.bb, true, 0)
		delta := "-"
		if factor == 1.0 {
			healthy = res.IterSeconds
		} else {
			delta = fmt.Sprintf("%+.1f%%", (res.IterSeconds/healthy-1)*100)
		}
		t.AddRow("straggler", "strong (Fig9)", label, bucketed.name, "on", ms(res.IterSeconds), delta)
	}

	// Section (d): the autotuner under contention.
	for _, sc := range scales {
		base := sw.opaConfig(core.Large, ranks, sc.globalN, cclAlltoall)
		base.Iters, base.Contention = o.Iters, true
		_, rep := core.AutotuneDistConfig(base, core.AutotuneOpts{
			FinalIters:    o.Iters,
			MaxCandidates: o.MaxCandidates,
			Seed:          o.Seed,
		})
		t.AddRow("autotune", sc.name, "2:1 trunk", "default", "on", ms(rep.BaselineSeconds), "-")
		t.AddRow("autotune", sc.name, "2:1 trunk", "tuned: "+rep.Schedule, "on", ms(rep.TunedSeconds),
			fmt.Sprintf("%+.1f%%", (rep.TunedSeconds/rep.BaselineSeconds-1)*100))
	}

	// Section (e): §VI-D1 interference, flat factor vs link-level mechanics.
	mpi := core.Variant{Strategy: core.Alltoall, Backend: cluster.MPIBackend}
	mpiOff := sw.runDistContention(core.Large.GlobalMB, mpi, tree,
		o.Iters, bucketed.overlap, bucketed.bb, false, 1.0)
	mpiOn := sw.runDistContention(core.Large.GlobalMB, mpi, tree,
		o.Iters, bucketed.overlap, bucketed.bb, false, 1.3)
	t.AddRow("§VI-D1", "strong (Fig9)", "2:1 trunk", "MPI overlapped, interference off", "n/a",
		ms(mpiOff.IterSeconds), "-")
	t.AddRow("§VI-D1", "strong (Fig9)", "2:1 trunk", "MPI overlapped, interference 1.3x", "n/a",
		ms(mpiOn.IterSeconds), fmt.Sprintf("%+.1f%%", (mpiOn.IterSeconds/mpiOff.IterSeconds-1)*100))
	cclOff := sw.runDistContention(core.Large.GlobalMB, cclAlltoall, tree,
		o.Iters, bucketed.overlap, bucketed.bb, false, 0)
	cclOn := sw.runDistContention(core.Large.GlobalMB, cclAlltoall, tree,
		o.Iters, bucketed.overlap, bucketed.bb, true, 0)
	t.AddRow("§VI-D1", "strong (Fig9)", "2:1 trunk", "CCL bucketed+overlapped", "off",
		ms(cclOff.IterSeconds), "-")
	t.AddRow("§VI-D1", "strong (Fig9)", "2:1 trunk", "CCL bucketed+overlapped", "on",
		ms(cclOn.IterSeconds), fmt.Sprintf("%+.1f%%", (cclOn.IterSeconds/cclOff.IterSeconds-1)*100))

	t.AddNote("sharing discipline: causal residual-drain — a collective pays its isolated time plus the " +
		"in-flight residual bytes of overlapping collectives on its bottleneck link (cluster.Engine.ChargeContended)")
	t.AddNote("contention off is the committed-baseline pricing (every collective against an empty fabric); " +
		"the knob defaults off so archived virtual numbers stay bit-identical")
	t.AddNote("§VI-D1 rows: the paper observes MPI communication interfering with the rest of the iteration; " +
		"the flat 1.3x factor imposes that by fiat on compute, the contention rows reproduce the same class of " +
		"slowdown from link-level mechanics on concurrent collectives")
	return t
}

// onOff renders the contention column.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// trunkRatio names the oversubscription of a 32-host leaf with the given
// uplink count.
func trunkRatio(uplinks int) string {
	if uplinks >= 32 {
		return "non-blocking"
	}
	return fmt.Sprintf("%d:1", 32/uplinks)
}
