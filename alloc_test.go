// Allocation-regression tests: the steady-state training iteration must not
// allocate. The paper's single-socket speedups depend on the hot loop paying
// only for FLOPs and memory traffic; in Go the equivalent discipline is
// zero heap allocations per step after warmup (no GC pressure, no goroutine
// churn), which these tests pin down with testing.AllocsPerRun. A change
// that reintroduces a per-iteration make/closure/boxing shows up here as a
// hard failure rather than a silent ns/op regression.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/gemm"
	"repro/internal/mlp"
	"repro/internal/optim"
	"repro/internal/par"
	"repro/internal/tensor"
)

// assertZeroAllocs runs fn through AllocsPerRun after a warmup call and
// fails if any steady-state run allocates.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warmup: first call may size workspaces
	fn()
	if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per steady-state run, want 0", name, allocs)
	}
}

func trainerFor(t *testing.T, prec core.Precision) (*core.Trainer, *data.MiniBatch) {
	t.Helper()
	rows := data.ScaleRows(data.CriteoTBRows, 1.0/16384)
	cfg := core.Config{
		Name: "alloc-mini", MB: 64, GlobalMB: 64, LocalMB: 64,
		Lookups: 2, Tables: 8, EmbDim: 16, Rows: rows[:8],
		DenseIn: 13, BotHidden: []int{32}, TopHidden: []int{64, 32},
	}
	ds := data.NewClickLog(1, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	m := core.NewModel(cfg, 16, 1)
	tr := core.NewTrainer(m, par.Default, embedding.RaceFree, 0.1, prec)
	return tr, ds.Batch(0, cfg.MB)
}

func TestTrainerStepZeroAllocsFP32(t *testing.T) {
	tr, mb := trainerFor(t, core.FP32)
	assertZeroAllocs(t, "Trainer.Step/FP32", func() { tr.Step(mb) })
}

func TestTrainerStepZeroAllocsFP32Fused(t *testing.T) {
	tr, mb := trainerFor(t, core.FP32)
	tr.FusedEmbedding = true
	assertZeroAllocs(t, "Trainer.Step/FP32+fused", func() { tr.Step(mb) })
}

func TestTrainerStepZeroAllocsBF16Split(t *testing.T) {
	tr, mb := trainerFor(t, core.BF16Split)
	assertZeroAllocs(t, "Trainer.Step/BF16Split", func() { tr.Step(mb) })
}

func TestTrainerStepZeroAllocsFP24(t *testing.T) {
	tr, mb := trainerFor(t, core.FP24)
	assertZeroAllocs(t, "Trainer.Step/FP24", func() { tr.Step(mb) })
}

func TestGemmForwardZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xD := tensor.NewDense(64, 128)
	xD.Randomize(rng, 1)
	wD := tensor.NewDense(128, 128)
	wD.Randomize(rng, 1)
	x := tensor.PackActs(xD, 16, 32)
	w := tensor.PackWeights(wD, 32, 32)
	y := tensor.NewActs(64, 128, 16, 32)
	assertZeroAllocs(t, "gemm.Forward", func() { gemm.Forward(par.Default, w, x, y) })
	assertZeroAllocs(t, "gemm.ForwardSkipZeros", func() { gemm.ForwardSkipZeros(par.Default, w, x, y) })

	dw := tensor.NewWeights(128, 128, 32, 32)
	assertZeroAllocs(t, "gemm.BackwardWeights", func() { gemm.BackwardWeights(par.Default, y, x, dw) })
}

func TestMLPStackZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mlp.New([]int{64, 128, 128, 32}, 16, mlp.ReLU, mlp.None, rng)
	xD := tensor.NewDense(64, 64)
	xD.Randomize(rng, 1)
	x := tensor.PackActs(xD, 16, mlp.BlockPick(64, 64))

	var y *tensor.Acts
	assertZeroAllocs(t, "mlp.MLP.Forward", func() { y = m.Forward(par.Default, x) })

	dy := y.Clone()
	assertZeroAllocs(t, "mlp.MLP.Backward", func() { m.Backward(par.Default, dy, true) })

	// A full train cycle (forward, backward, SGD step) must also be free of
	// steady-state allocations: the step invalidates the cached transposes,
	// so this additionally covers the in-place re-transpose path.
	var sgd []*optim.SGD
	for _, l := range m.Layers {
		sgd = append(sgd, optim.NewSGD(l.W.Data), optim.NewSGD(l.Bias))
	}
	assertZeroAllocs(t, "mlp.MLP.train-cycle", func() {
		out := m.Forward(par.Default, x)
		copy(dy.Data, out.Data)
		m.Backward(par.Default, dy, false)
		for i, l := range m.Layers {
			sgd[2*i].Step(l.DW.Data, 0.01)
			sgd[2*i+1].Step(l.DBias, 0.01)
		}
		m.InvalidateTransposes()
	})
}

func TestEmbeddingKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := embedding.NewTable(10_000, 32, rng, 0.01)
	batch := embedding.MakeBatch(rng, embedding.Uniform{}, 256, 10, tab.M)
	out := make([]float32, 256*32)
	dW := make([]float32, batch.NumLookups()*32)
	assertZeroAllocs(t, "embedding.Forward", func() { tab.Forward(par.Default, batch, out) })
	assertZeroAllocs(t, "embedding.Backward", func() { tab.Backward(par.Default, batch, out, dW) })
	assertZeroAllocs(t, "embedding.Update/RaceFree", func() {
		tab.Update(par.Default, embedding.RaceFree, batch, dW, 1e-6)
	})
	assertZeroAllocs(t, "embedding.FusedBackwardUpdate", func() {
		tab.FusedBackwardUpdate(par.Default, batch, out, 1e-6)
	})
}
