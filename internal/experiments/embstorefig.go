package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/embstore"
)

// rank0Rows returns the row counts of the tables rank 0 owns at the given
// scale — the shard the figure's analytic hit-rate column describes (the
// round-robin layout makes every rank's shard statistically identical).
func rank0Rows(cfg core.Config, ranks int) []int {
	var rows []int
	for t := 0; t < cfg.Tables; t++ {
		if core.TableOwner(t, ranks) == 0 {
			rows = append(rows, cfg.Rows[t])
		}
	}
	return rows
}

// embstoreFig is the tiered-parameter-store figure: virtual time per
// iteration of the Fig. 9 strong-scaling run (Large over 64 ranks, CCL
// alltoall, default bucketed+overlapped schedule) as the per-rank hot-row
// cache budget and the traffic skew sweep. The in-RAM row (budget 0) is the
// PR 9 baseline; every tiered row pays the cold tier for its miss mass, so
// a hot budget at high skew approaches — never beats — in-RAM, while a
// starved budget degenerates to streaming every batch's rows from the cold
// tier. The sweep crosses hot-cache budgets of 4 KiB to 1 GiB with Zipf
// skews 0.8 to 1.2; the virtual ms/iter column is the mean of 4 timing
// iterations by default.
func embstoreFig(o Opts) *Table {
	const ranks = 64
	cfg := core.Large
	t := &Table{
		Title: "Tiered embedding store: Fig. 9 strong scaling vs hot-cache budget x row skew " +
			"(Large, 64 ranks, CCL alltoall, cold tier " +
			fmt.Sprintf("%.0f GB/s + %.0f us)", core.DefaultColdTierBW/1e9, core.DefaultColdTierLat*1e6),
		Headers: []string{"budget", "skew", "model hit", "cold fetch ms", "cold wb ms",
			"virtual ms/iter", "vs in-RAM"},
	}
	sw := newDistSweep()
	defer sw.close()
	run := func(budget int, skew float64) *core.DistResult {
		dc := sw.opaConfig(cfg, ranks, cfg.GlobalMB, cclAlltoall)
		dc.Iters = o.iters(4)
		if budget > 0 {
			dc.EmbCacheBytes = budget
			dc.ColdTierBW = core.DefaultColdTierBW
			dc.EmbSkew = skew
		}
		return mustRun(dc)
	}
	humanBytes := func(b int) string {
		switch {
		case b >= 1<<30:
			return fmt.Sprintf("%d GiB", b>>30)
		case b >= 1<<20:
			return fmt.Sprintf("%d MiB", b>>20)
		default:
			return fmt.Sprintf("%d KiB", b>>10)
		}
	}
	inRAM := run(0, 0)
	t.AddRow("in-RAM", "-", "100%", "-", "-",
		fmt.Sprintf("%.2f", inRAM.IterSeconds*1e3), "1.00x")
	shard := rank0Rows(cfg, ranks)
	for _, skew := range []float64{0.8, 1.05, 1.2} {
		for _, budget := range []int{4 << 10, 64 << 20, 256 << 20, 1 << 30} {
			res := run(budget, skew)
			hit := embstore.HitRate(budget, cfg.EmbDim, shard, skew)
			t.AddRow(humanBytes(budget), fmt.Sprintf("%.2f", skew),
				fmt.Sprintf("%.1f%%", hit*100),
				fmt.Sprintf("%.3f", res.PrepPerIter["coldtier"]*1e3),
				fmt.Sprintf("%.3f", res.BusyPerIter["coldtier-wb"]*1e3),
				fmt.Sprintf("%.2f", res.IterSeconds*1e3),
				fmt.Sprintf("%.2fx", res.IterSeconds/inRAM.IterSeconds))
		}
	}
	t.AddNote("model hit is the analytic Zipf head mass of a rank's shard at that budget; " +
		"cold fetch is charged before the embedding forward, the write-back drains in the background")
	t.AddNote("budget 0 (in-RAM) is bit-identical to the untiered PR 9 baseline; " +
		"the functional store's loss parity is pinned by core's TestEmbStoreLossParity")
	return t
}
