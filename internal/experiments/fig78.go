package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/trace"
)

// Fig7Opts sizes the single-socket end-to-end DLRM runs of Figs. 7 and 8.
// Tables are scaled by RowScale to fit host memory; the embedding-update
// cost comparison is unaffected in shape (Reference scales with table rows,
// the optimized strategies with lookups).
type Fig7Opts struct {
	Iters    int
	MB       int     // minibatch (0 → config default)
	RowScale float64 // table row scaling
	SkipRef  bool    // skip the slow Reference runs (quick mode)
}

// DefaultFig7Opts returns host-sized defaults. The row scale and minibatch
// are chosen so that table rows ≫ batch lookups, preserving the paper's
// regime where the Reference dense-gradient update dwarfs the optimized
// strategies (full scale: M=1e6 vs NS=102k per iteration).
func DefaultFig7Opts() Fig7Opts {
	return Fig7Opts{Iters: 2, MB: 256, RowScale: 1.0 / 4}
}

// Fig78Result carries both the per-strategy iteration times (Fig. 7) and
// the phase breakdown (Fig. 8), which come from the same runs.
type Fig78Result struct {
	Fig7 *Table
	Fig8 *Table
}

// RunFig78 executes single-socket DLRM training for the Small config
// (uniform indices) and the MLPerf config (Zipf click-log indices) under
// the four embedding-update strategies, really running every kernel, and
// reports ms/iteration (Fig. 7) plus the time split across embeddings, MLP
// and the rest (Fig. 8).
func RunFig78(o Fig7Opts) *Fig78Result {
	fig7 := &Table{
		Title:   "Fig. 7: DLRM single-socket performance (ms per iteration)",
		Headers: []string{"config", "strategy", "ms/iter", "speedup", "emb ms/iter", "emb speedup"},
	}
	fig8 := &Table{
		Title:   "Fig. 8: DLRM single-socket time split across key ops",
		Headers: []string{"config", "strategy", "embeddings", "mlp", "rest"},
	}
	pool := par.Default

	type caseDef struct {
		cfg  core.Config
		ds   data.Dataset
		name string
	}
	smallCfg := core.Small.Scaled(o.RowScale)
	mlperfCfg := core.MLPerf.Scaled(o.RowScale / 8) // Criteo tables are much larger
	cases := []caseDef{
		{smallCfg, &data.Random{Seed: 1, D: smallCfg.DenseIn, Tables: smallCfg.Tables,
			Rows: smallCfg.Rows[0], Lookups: smallCfg.Lookups}, "Small"},
		{mlperfCfg, data.NewClickLog(2, mlperfCfg.DenseIn, mlperfCfg.Rows, mlperfCfg.Lookups), "MLPerf"},
	}

	for _, cs := range cases {
		mb := o.MB
		if mb == 0 {
			mb = cs.cfg.MB
		}
		var refTime, refEmb float64
		strategies := embedding.Strategies
		if o.SkipRef {
			strategies = strategies[1:]
		}
		for _, strat := range strategies {
			m := core.NewModel(cs.cfg, 16, 99)
			tr := core.NewTrainer(m, pool, strat, 0.1, core.FP32)
			tr.Prof = trace.NewProfile()
			batches := make([]*data.MiniBatch, o.Iters)
			for i := range batches {
				batches[i] = cs.ds.Batch(i, mb)
			}
			tr.Step(batches[0]) // warm-up
			tr.Prof.Reset()
			start := time.Now()
			for _, b := range batches {
				tr.Step(b)
			}
			perIter := time.Since(start).Seconds() / float64(o.Iters)
			embIter := tr.Prof.Total("embeddings").Seconds() / float64(o.Iters)
			if strat == embedding.Reference {
				refTime, refEmb = perIter, embIter
			}
			speedup, embSpeedup := "-", "-"
			if refTime > 0 {
				speedup = fmt.Sprintf("%.1fx", refTime/perIter)
				embSpeedup = fmt.Sprintf("%.1fx", refEmb/embIter)
			}
			fig7.AddRow(cs.name, strat.String(), ms(perIter), speedup, ms(embIter), embSpeedup)

			sum := tr.Prof.Sum().Seconds()
			if sum > 0 {
				fig8.AddRow(cs.name, strat.String(),
					pct(tr.Prof.Total("embeddings").Seconds()/sum),
					pct(tr.Prof.Total("mlp").Seconds()/sum),
					pct(tr.Prof.Total("rest").Seconds()/sum))
			}
		}
	}
	fig7.AddNote("paper (full-scale SKX): Small 4288→38.3 ms (~110x); MLPerf 272→34.8 ms (~8x)")
	fig7.AddNote("tables scaled by %.3g to fit host memory; single-core hosts mute the contention gap between Atomic/RTM and RaceFree", o.RowScale)
	fig7.AddNote("MLPs on the %s GEMM kernel, embedding lookups and the RTM / Race Free updates on the %s row kernels; Reference (the paper's before) and Atomic XCHG stay scalar Go — the 'emb' columns isolate the kernel the paper optimizes", gemm.KernelISA(), embedding.KernelISA())
	fig8.AddNote("paper: after optimization Small spends ~30%% in embeddings; MLPerf <20%%")
	return &Fig78Result{Fig7: fig7, Fig8: fig8}
}
