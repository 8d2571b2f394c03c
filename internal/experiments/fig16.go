package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/par"
)

// fig16 reproduces the training-accuracy comparison of §VII: ROC AUC at
// every 5% of an epoch for FP32, BF16 Split-SGD, FP24 (1-8-15) and the
// insufficient 8-LSB split. The paper trains the MLPerf config on Criteo
// Terabyte to ROC AUC ≈ 0.8025; here an MLPerf-shaped model — the same 26
// Criteo tables scaled by 1/4096, the same 13 dense features, smaller
// embedding and MLP widths — trains on the synthetic click log for 400
// iterations (Quick: 100), evaluated on 4096 held-out samples (Quick: 2048).
func fig16(o Opts) *Table {
	iters, evalN := 400, 4096
	if o.Quick {
		iters, evalN = 100, 2048
	}
	iters = o.iters(iters)
	const mb, lr = 128, 0.5
	cfg := core.Config{
		Name:      "MLPerf-mini",
		MB:        mb,
		GlobalMB:  mb,
		LocalMB:   mb,
		Lookups:   1,
		Tables:    26,
		EmbDim:    16,
		Rows:      data.ScaleRows(data.CriteoTBRows, 1.0/4096),
		DenseIn:   13,
		BotHidden: []int{32},
		TopHidden: []int{64, 32},
	}
	ds := data.NewClickLog(1234, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	eval := ds.Batch(1<<20, evalN)
	pool := par.Default

	precisions := []core.Precision{core.FP32, core.BF16Split, core.FP24, core.BF16Split8LSB}
	headers := []string{"% of epoch"}
	for _, p := range precisions {
		headers = append(headers, p.String())
	}
	t := &Table{Title: "Fig. 16: training accuracy (ROC AUC) with mixed-precision BF16", Headers: headers}

	// Train each precision, recording AUC at every 5% checkpoint.
	checkpoints := 20
	aucs := make([][]float64, len(precisions))
	for pi, prec := range precisions {
		m := core.NewModel(cfg, 16, 77)
		tr := core.NewTrainer(m, pool, embedding.RaceFree, lr, prec)
		step := max(iters/checkpoints, 1)
		for i := 0; i < iters; i++ {
			tr.Step(ds.Batch(i, mb))
			if (i+1)%step == 0 && len(aucs[pi]) < checkpoints {
				aucs[pi] = append(aucs[pi], tr.EvalAUC(eval))
			}
		}
		for len(aucs[pi]) < checkpoints {
			aucs[pi] = append(aucs[pi], tr.EvalAUC(eval))
		}
	}
	for cp := 0; cp < checkpoints; cp++ {
		row := []string{fmt.Sprintf("%d%%", (cp+1)*5)}
		for pi := range precisions {
			row = append(row, fmt.Sprintf("%.4f", aucs[pi][cp]))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper (Criteo TB, full scale): FP32 0.8027, BF16 SplitSGD 0.8027 (<0.001%% gap), FP24 0.7947")
	t.AddNote("expected shape: BF16 SplitSGD tracks FP32; FP24 trails; 8-LSB split is insufficient (§VII)")
	return t
}
