package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/par"
)

// ablationAllreduce sweeps the allreduce algorithm over the paper's three
// gradient volumes (Table II: 9.5 MB, 1047 MB, 9.0 MB) and rank counts —
// the "best allreduce algorithm" requirement of §II made concrete: ring
// reduce-scatter+all-gather wins the bandwidth-bound regimes, recursive
// halving the latency-bound ones, and the untuned flat tree loses both.
func ablationAllreduce(Opts) *Table {
	t := &Table{
		Title: "Ablation: allreduce algorithm vs gradient volume (ms, OPA fat-tree)",
		Headers: []string{"volume", "ranks", "ring RS+AG", "recursive halving", "flat tree",
			"hierarchical", "binary tree", "best"},
	}
	vols := []struct {
		name  string
		bytes float64
	}{
		{"4 KB (latency-bound)", 4e3},
		{"9.5 MB (Small grads)", core.Small.AllreduceBytes()},
		{"1047 MB (Large grads)", core.Large.AllreduceBytes()},
	}
	for _, v := range vols {
		for _, ranks := range []int{8, 32, 64} {
			c := comm.NewPricer(opaTree(ranks), ranks)
			best, _ := c.BestAllreduceAlgo(v.bytes)
			row := []string{v.name, fmt.Sprintf("%dR", ranks)}
			for _, a := range comm.AllreduceAlgos {
				row = append(row, ms(c.AllreduceTimeAlgo(a, v.bytes)))
			}
			row = append(row, best.String())
			t.AddRow(row...)
		}
	}
	return t
}

// ablationCommCores sweeps S, the number of cores per socket dedicated to
// communication (§IV-A: "we tune the value of S to balance the
// communication time in SGD and the computation time in GEMMs"), on the
// Large-config strong-scaling run at 16 ranks. Too few comm cores leave
// communication exposed; too many starve the GEMMs.
func ablationCommCores(o Opts) *Table {
	const ranks = 16
	t := &Table{
		Title:   "Ablation: communication-core count S (Large config, CCL Alltoall)",
		Headers: []string{"comm cores", "compute (ms)", "comm exposed (ms)", "total (ms)"},
	}
	for _, s := range []int{1, 2, 4, 8, 12} {
		dc := opaConfig(core.Large, ranks, core.Large.GlobalMB, cclAlltoall)
		dc.Iters, dc.CommCores = o.iters(defaultIters), s
		res := mustRun(dc)
		t.AddRow(fmt.Sprint(s), ms(res.ComputePerIter), ms(res.TotalCommPerIter()), ms(res.IterSeconds))
	}
	t.AddNote("paper dedicates 4 of 28 cores; the sweet spot balances GEMM slowdown against exposed waits")
	return t
}

// ablationCapacity reproduces the §VII storage argument: bytes per weight of
// model+optimizer state for each training scheme. Split-SGD-BF16 matches
// FP32's total while FP16/BF16 master-weight schemes pay 3×16 bits.
func ablationCapacity(Opts) *Table {
	t := &Table{
		Title: "Ablation: storage per weight (model + optimizer state)",
		Headers: []string{"scheme", "working weights", "optimizer state", "total bits",
			"Large-config tables"},
	}
	tableWeights := core.Large.TableBytes() / 4 // weights count
	gb := func(bitsPerWeight float64) string {
		return fmt.Sprintf("%.0f GB", tableWeights*bitsPerWeight/8/1e9)
	}
	t.AddRow("FP32 SGD", "32b", "-", "32", gb(32))
	t.AddRow("BF16 Split-SGD", "16b (hi)", "16b (lo)", "32", gb(32))
	t.AddRow("BF16 + master weights", "16b", "32b (FP32 master)", "48", gb(48))
	t.AddRow("FP16 + master weights", "16b", "32b (FP32 master)", "48", gb(48))
	t.AddRow("FP16 stochastic (no master)", "16b", "-", "16", gb(16))
	t.AddNote("§VII: master weights cost 200%% extra on 16-bit models; Split-SGD stores the same 32 bits as FP32")
	t.AddNote("FP16-stochastic saves capacity but does not reach reference accuracy (see fig16 -quick with FP16)")
	return t
}

// ablationFused measures the fused backward+update against the two-step
// path (§III-A reports up to 1.6× standalone) in a real run, each timed as
// the mean of 3 sweeps after a warm-up.
func ablationFused(Opts) *Table {
	const iters = 3
	t := &Table{
		Title:   "Ablation: fused embedding backward+update vs two-step",
		Headers: []string{"variant", "ms/sweep"},
	}
	pool := par.Default
	rng := rand.New(rand.NewSource(1))
	tab := embedding.NewTable(500_000, 64, rng, 0.01)
	batch := embedding.MakeBatch(rng, embedding.Uniform{}, 2048, 50, tab.M)
	dOut := make([]float32, 2048*64)
	for i := range dOut {
		dOut[i] = rng.Float32()
	}
	dW := make([]float32, batch.NumLookups()*64)

	twoStep := timeIt(iters, func() {
		tab.Backward(pool, batch, dOut, dW)
		tab.Update(pool, embedding.RaceFree, batch, dW, 1e-6)
	})
	fused := timeIt(iters, func() {
		tab.FusedBackwardUpdate(pool, batch, dOut, 1e-6)
	})
	t.AddRow("two-step (Alg. 2 + Alg. 4)", ms(twoStep))
	t.AddRow("fused (§III-A)", ms(fused))
	t.AddNote("paper: up to 1.6x standalone; fusing skips the NS×E gradient materialization")
	return t
}
