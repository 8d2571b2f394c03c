package core

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/par"
	"repro/internal/testenv"
)

// inferTestModel is a small full model plus a dataset for it.
func inferTestModel(bn int) (Config, *Model, data.Dataset) {
	cfg := Small.Scaled(1.0 / 64)
	m := NewModel(cfg, bn, 31)
	ds := data.NewClickLog(9, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	return cfg, m, ds
}

// TestPredictorMatchesTrainerPredict pins forward parity: the forward-only
// Predictor and the Trainer's Predict produce bit-identical probabilities
// on the same weights.
func TestPredictorMatchesTrainerPredict(t *testing.T) {
	_, m, ds := inferTestModel(16)
	pr := NewPredictor(m, par.Default)
	tr := NewTrainer(m, par.Default, 0, 0.5, FP32)
	mb := ds.Batch(0, 64)
	got := make([]float32, mb.N)
	pr.PredictInto(mb, got)
	if want := tr.Predict(mb); !slices.Equal(got, want) {
		t.Fatalf("Predictor %v, Trainer.Predict %v", got, want)
	}
}

// TestPredictorBatchSizeInvariance pins the property serving batching
// relies on: with BN=1, a sample's probability is bit-identical whether it
// is predicted alone or inside any larger batch (row-blocked GEMMs with
// per-row accumulation order, per-sample interaction and sigmoid).
func TestPredictorBatchSizeInvariance(t *testing.T) {
	_, m, ds := inferTestModel(1)
	pr := NewPredictor(m, par.Default)
	const B = 32
	full := ds.Batch(0, B)
	ref := make([]float32, B)
	pr.PredictInto(full, ref)
	var mb data.MiniBatch
	for _, n := range []int{1, B / 2, B} {
		for start := 0; start+n <= B; start += n {
			ds.FillRange(0, B, start, start+n, &mb)
			out := make([]float32, n)
			pr.PredictInto(&mb, out)
			for i := range out {
				if out[i] != ref[start+i] {
					t.Fatalf("batch %d sample %d: %v standalone vs %v in full batch",
						n, start+i, out[i], ref[start+i])
				}
			}
		}
	}
}

// TestPredictorZeroAllocs pins the steady-state allocation discipline,
// including alternating batch sizes through the same Predictor (the
// EnsureActs capacity reuse the serving tier needs).
func TestPredictorZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	_, m, ds := inferTestModel(1)
	pr := NewPredictor(m, par.Default)
	const B = 32
	var big, small data.MiniBatch
	ds.FillRange(0, B, 0, B, &big)
	ds.FillRange(0, B, 0, B/4, &small)
	out := make([]float32, B)
	probe := func() {
		pr.PredictInto(&big, out)
		pr.PredictInto(&small, out[:B/4])
	}
	probe()
	probe()
	if allocs := testing.AllocsPerRun(10, probe); allocs != 0 {
		t.Fatalf("steady-state Predictor: %v allocs per probe, want 0", allocs)
	}
}
