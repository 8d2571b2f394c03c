package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/gemm"
	"repro/internal/par"
)

// fig78Size sizes the single-socket end-to-end runs of Figs. 7 and 8:
// training iterations, minibatch, and the factor the tables' rows are
// scaled by to fit host memory. The embedding-update cost comparison is
// unaffected in shape (Reference scales with table rows, the optimized
// strategies with lookups): rows ≫ batch lookups keeps the paper's regime,
// where the Reference dense-gradient update dwarfs the optimized strategies
// (full scale: M=1e6 vs NS=102k per iteration).
func fig78Size(o Opts) (iters, mb int, rowScale float64) {
	iters, mb, rowScale = 2, 256, 1.0/4
	if o.Quick {
		iters, mb, rowScale = 1, 64, 1.0/64
	}
	return o.iters(iters), mb, rowScale
}

// fig78Case is one configuration of Figs. 7/8 with its batch source.
type fig78Case struct {
	name string
	cfg  core.Config
	ds   data.Dataset
}

// fig78Cases are the Small config on uniform indices and the MLPerf config
// (whose Criteo tables are 8× larger again) on Zipf click-log indices.
func fig78Cases(rowScale float64) []fig78Case {
	small := core.Small.Scaled(rowScale)
	mlperf := core.MLPerf.Scaled(rowScale / 8)
	return []fig78Case{
		{"Small", small, &data.Random{Seed: 1, D: small.DenseIn, Tables: small.Tables,
			Rows: small.Rows[0], Lookups: small.Lookups}},
		{"MLPerf", mlperf, data.NewClickLog(2, mlperf.DenseIn, mlperf.Rows, mlperf.Lookups)},
	}
}

// fig78 executes single-socket DLRM training for both cases under the four
// embedding-update strategies, really running every kernel, and reports
// ms/iteration (Fig. 7) plus the time split across embeddings, MLP and the
// rest (Fig. 8), which come from the same runs.
func fig78(o Opts) (fig7, fig8 *Table) {
	fig7 = &Table{
		Title:   "Fig. 7: DLRM single-socket performance (ms per iteration)",
		Headers: []string{"config", "strategy", "ms/iter", "speedup", "emb ms/iter", "emb speedup"},
	}
	fig8 = &Table{
		Title:   "Fig. 8: DLRM single-socket time split across key ops",
		Headers: []string{"config", "strategy", "embeddings", "mlp", "rest"},
	}
	pool := par.Default
	iters, mb, rowScale := fig78Size(o)
	for _, cs := range fig78Cases(rowScale) {
		var refTime, refEmb float64
		for _, strat := range embedding.Strategies {
			m := core.NewModel(cs.cfg, 16, 99)
			tr := core.NewTrainer(m, pool, strat, 0.1, core.FP32)
			batches := make([]*data.MiniBatch, iters)
			for i := range batches {
				batches[i] = cs.ds.Batch(i, mb)
			}
			tr.Step(batches[0]) // warm-up
			tr.ResetPhaseTimes()
			start := time.Now()
			for _, b := range batches {
				tr.Step(b)
			}
			perIter := time.Since(start).Seconds() / float64(iters)
			emb, mlp, rest := tr.PhaseTime("embeddings"), tr.PhaseTime("mlp"), tr.PhaseTime("rest")
			embIter := emb.Seconds() / float64(iters)
			if strat == embedding.Reference {
				refTime, refEmb = perIter, embIter
			}
			speedup, embSpeedup := "-", "-"
			if refTime > 0 {
				speedup = fmt.Sprintf("%.1fx", refTime/perIter)
				embSpeedup = fmt.Sprintf("%.1fx", refEmb/embIter)
			}
			fig7.AddRow(cs.name, strat.String(), ms(perIter), speedup, ms(embIter), embSpeedup)

			if sum := (emb + mlp + rest).Seconds(); sum > 0 {
				fig8.AddRow(cs.name, strat.String(),
					pct(emb.Seconds()/sum), pct(mlp.Seconds()/sum), pct(rest.Seconds()/sum))
			}
		}
	}
	fig7.AddNote("paper (full-scale SKX): Small 4288→38.3 ms (~110x); MLPerf 272→34.8 ms (~8x)")
	fig7.AddNote("tables scaled by %.3g to fit host memory; single-core hosts mute the contention gap between Atomic/RTM and RaceFree", rowScale)
	fig7.AddNote("MLPs on the %s GEMM kernel, embedding lookups and the RTM / Race Free updates on the %s row kernels; Reference (the paper's before) and Atomic XCHG stay scalar Go — the 'emb' columns isolate the kernel the paper optimizes", gemm.KernelISA(), embedding.KernelISA())
	fig8.AddNote("paper: after optimization Small spends ~30%% in embeddings; MLPerf <20%%")
	return fig7, fig8
}
