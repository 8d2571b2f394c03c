package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/embedding"
	"repro/internal/par"
)

// trainerGolden is one single-socket run TestTrainerGolden pins.
type trainerGolden struct {
	prec     Precision
	strategy embedding.Strategy
	fused    bool
	hash     string
}

func (g trainerGolden) String() string {
	s := fmt.Sprintf("%v/%v", g.prec, g.strategy)
	if g.fused {
		s += "/fused"
	}
	return s
}

// trainerGoldens are tinyConfig trained for six steps of 64 samples at
// learning rate 0.5 (seed 17, three workers): FP32 under the two update
// strategies whose sums do not depend on scheduling, and fused, then the
// race-free mixed-precision runs. AtomicXchg and RTMStyle add a repeated
// row's gradients in the order the workers reach it, so they have no golden.
var trainerGoldens = []trainerGolden{
	{FP32, embedding.Reference, false,
		"2349c6aad9577ff390f43aa2b3047de8ccf313313b40d7d8e278c14fff6c14c6"},
	{FP32, embedding.RaceFree, false,
		"24114d31d046bd2846e3f2ab29feb9af0d69fab158fcdacd2da85307b0b78541"},
	{FP32, embedding.RaceFree, true,
		"24114d31d046bd2846e3f2ab29feb9af0d69fab158fcdacd2da85307b0b78541"},
	{BF16Split, embedding.RaceFree, false,
		"c71693d692ea7e9b373dc4e73968175972ff291453ed0830455c9abedc364b7b"},
	{BF16Split8LSB, embedding.RaceFree, false,
		"03eaa23bd0a85611cdfd6b1d64077d82809eb5a5955b64b6c5f6774d7b876611"},
	{FP24, embedding.RaceFree, false,
		"3c08e3254c6e15cbbd7ea0f30fe9a5cff9647351f310f60b86d5fa1fbef11f99"},
}

// skipWithoutVectorGEMM skips a golden test where gemm runs its Go kernel
// (another architecture, or amd64 without AVX2 + FMA). The hashes are
// recorded on the vector tiles, and the Go kernel matches those only to
// rounding (the reduction-order contract in gemm/kernel.go), so they cannot
// hold there.
func skipWithoutVectorGEMM(t *testing.T) {
	if runtime.GOARCH != "amd64" || cpu.Vector() == cpu.Go {
		t.Skip("golden hashes are recorded on amd64's vector GEMM tiles; the Go kernel matches them only to rounding")
	}
}

// TestTrainerGolden holds Trainer.Step's per-step losses and the final MLP
// parameters and tables to committed SHA-256 hashes, bit for bit, for every
// precision and the deterministic update strategies.
func TestTrainerGolden(t *testing.T) {
	skipWithoutVectorGEMM(t)
	cfg := tinyConfig()
	ds := tinyDataset(cfg)
	pool := par.NewPool(3)
	defer pool.Close()
	got := make([]string, len(trainerGoldens))
	for i, g := range trainerGoldens {
		tr := NewTrainer(NewModel(cfg, 16, 17), pool, g.strategy, 0.5, g.prec)
		tr.FusedEmbedding = g.fused
		losses := make([]float64, 6)
		for it := range losses {
			losses[it] = tr.Step(ds.Batch(it, 64))
		}
		h := sha256.New()
		h.Write(runBits(nil, losses, tr.M))
		got[i] = hex.EncodeToString(h.Sum(nil))
		if got[i] != g.hash {
			t.Errorf("%v: hash %s", g, got[i])
		}
	}
	if t.Failed() {
		t.Logf("hashes of this build, in trainerGoldens order:\n%q", got)
	}
}
