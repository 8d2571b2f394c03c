package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/par"
	"repro/internal/trace"
)

// tinyConfig is a laptop-sized DLRM for functional tests.
func tinyConfig() Config {
	return Config{
		Name:      "Tiny",
		MB:        64,
		GlobalMB:  128,
		LocalMB:   32,
		Lookups:   3,
		Tables:    4,
		EmbDim:    16,
		Rows:      []int{200, 300, 100, 250},
		DenseIn:   8,
		BotHidden: []int{32},
		TopHidden: []int{64, 32},
	}
}

// miniMLPerfConfig is the benchmark's dist-func4 model at test-sized rows:
// MLPerf's 26 tables and layer counts at E = 32, so the top MLP's input is
// 32 + 351 = 383 wide — prime, stored padded to 384.
func miniMLPerfConfig() Config {
	return Config{
		Name: "MLPerf-mini", MB: 64, GlobalMB: 64, LocalMB: 16,
		Lookups: 1, Tables: 26, EmbDim: 32, Rows: data.ScaleRows(data.CriteoTBRows, 1.0/65536),
		DenseIn: 13, BotHidden: []int{128, 64}, TopHidden: []int{128, 128, 64},
	}
}

func tinyDataset(cfg Config) *data.ClickLog {
	return data.NewClickLog(42, cfg.DenseIn, cfg.Rows, cfg.Lookups)
}

func TestConfigsValid(t *testing.T) {
	for _, c := range Configs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if err := tinyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNoLayerBlocksBelow8: no layer of the Table I configurations, or of
// the benchmark's mini MLPerf model, with more than 64 input or output
// features may run its GEMMs in blocks below 8 — a prime top-MLP input (479,
// 383) once blocked at 1. Large's 4096² layers are too big to build here, so
// every stack's input is checked on a one-layer stack and every hidden width
// through the rule layers apply to it; the small models are also built whole.
func TestNoLayerBlocksBelow8(t *testing.T) {
	check := func(name string, l *mlp.Layer) {
		t.Helper()
		if (l.C > 64 && l.BC < 8) || (l.K > 64 && l.BK < 8) {
			t.Errorf("%s: %d→%d layer runs blocks bc=%d bk=%d", name, l.C, l.K, l.BC, l.BK)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range append([]Config{miniMLPerfConfig()}, Configs...) {
		for _, sizes := range [][]int{cfg.BotSizes(), cfg.TopSizes()} {
			check(cfg.Name+" input", mlp.New([]int{sizes[0], 64}, 16, mlp.ReLU, mlp.None, rng).Layers[0])
			for _, h := range sizes[1:] {
				if h > 64 && mlp.BlockPick(h, 64) < 8 {
					t.Errorf("%s: hidden width %d blocks at %d", cfg.Name, h, mlp.BlockPick(h, 64))
				}
			}
			if cfg.Name == "Large" {
				continue
			}
			for _, l := range mlp.New(sizes, 16, mlp.ReLU, mlp.None, rng).Layers {
				check(cfg.Name, l)
			}
		}
	}
}

func TestTableIValues(t *testing.T) {
	// Spot-check Table I constants.
	for _, c := range []struct {
		cfg                                        Config
		tables, dim, lookups, botLayers, topLayers int
	}{{Small, 8, 64, 50, 2, 4}, {Large, 64, 256, 100, 8, 16}, {MLPerf, 26, 128, 1, 3, 4}} {
		got := []int{c.cfg.Tables, c.cfg.EmbDim, c.cfg.Lookups, len(c.cfg.BotSizes()) - 1, len(c.cfg.TopSizes()) - 1}
		if want := []int{c.tables, c.dim, c.lookups, c.botLayers, c.topLayers}; !slices.Equal(got, want) {
			t.Errorf("%s: tables, E, lookups, bottom and top layers %v, want %v", c.cfg.Name, got, want)
		}
	}
	if got, want := MLPerf.BotSizes(), []int{13, 512, 256, 128}; !slices.Equal(got, want) {
		t.Fatalf("MLPerf bottom %v want %v", got, want)
	}
}

func TestTableIICharacteristics(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name        string
		got, lo, hi float64
	}{
		// Memory capacity for all tables (row 1), GB: ≈2, ≈393 (paper: 384), ≈98.
		{"Small table GB", Small.TableBytes() / 1e9, 2.038, 2.058},
		{"Large table GB", Large.TableBytes() / 1e9, 392.2, 394.2},
		{"MLPerf table GB", MLPerf.TableBytes() / 1e9, 90, 105},
		// Minimum sockets (row 2: with 96 GB usable the paper says 4 for
		// Large, so it budgets ~128 GB per socket).
		{"Large min sockets", float64(Large.MinSockets(128e9)), 4, 4},
		{"Small min sockets", float64(Small.MinSockets(128e9)), 1, 1},
		// Max ranks = table count (row 3).
		{"Small max ranks", float64(Small.MaxRanks()), 8, 8},
		{"Large max ranks", float64(Large.MaxRanks()), 64, 64},
		{"MLPerf max ranks", float64(MLPerf.MaxRanks()), 26, 26},
		// Allreduce sizes (row 4: 9.5 MB, 1047 MB, single-digit).
		{"Small allreduce MB", Small.AllreduceBytes() / 1e6, 8, 12},
		{"Large allreduce MB", Large.AllreduceBytes() / 1e6, 900, 1200},
		{"MLPerf allreduce MB", MLPerf.AllreduceBytes() / 1e6, 2, 12},
		// Alltoall volumes (row 5: 15.8, 1024, 208 MB), MiB.
		{"Small alltoall MiB", Small.AlltoallBytes(8192) / mib, 15.5, 16.5},
		{"Large alltoall MiB", Large.AlltoallBytes(16384) / mib, 1023, 1025},
		{"MLPerf alltoall MiB", MLPerf.AlltoallBytes(16384) / mib, 207, 209},
	} {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s = %v, want in [%v, %v]", c.name, c.got, c.lo, c.hi)
		}
	}
}

func TestScaledConfig(t *testing.T) {
	s := MLPerf.Scaled(1e-4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rows[0] != int(float64(data.CriteoTBRows[0])*1e-4) {
		t.Fatal("scaling wrong")
	}
	if s.Rows[5] != 1 {
		t.Fatal("tiny tables must keep at least one row")
	}
}

// fit trains a fresh model of cfg (block 16) on tinyDataset's first steps
// minibatches, with set applied to its trainer first.
func fit(cfg Config, seed int64, workers int, lr float32, steps int, set ...func(*Trainer)) (*Trainer, []float64) {
	tr := NewTrainer(NewModel(cfg, 16, seed), par.NewPool(workers), embedding.RaceFree, lr, FP32)
	for _, s := range set {
		s(tr)
	}
	ds := tinyDataset(cfg)
	losses := make([]float64, steps)
	for i := range losses {
		losses[i] = tr.Step(ds.Batch(i, cfg.MB))
	}
	return tr, losses
}

// checkLearns trains cfg for steps minibatches: the mean loss of the last
// window must be below the first window's, and the AUC on a held-out batch
// must gain at least gain and reach at least floor.
func checkLearns(t *testing.T, cfg Config, workers, steps, window int, gain, floor float64) {
	t.Helper()
	eval := tinyDataset(cfg).Batch(999, 2048)
	untrained, _ := fit(cfg, 1, workers, 1.0, 0)
	tr, losses := fit(cfg, 1, workers, 1.0, steps)
	var head, tail float64
	for i := range window {
		head, tail = head+losses[i], tail+losses[steps-window+i]
	}
	before, after := untrained.EvalAUC(eval), tr.EvalAUC(eval)
	if !(tail < head) || after < before+gain || after < floor {
		t.Fatalf("mean loss %g → %g, AUC %.4f → %.4f", head/float64(window), tail/float64(window), before, after)
	}
}

func TestTrainingReducesLossAndLearns(t *testing.T) {
	checkLearns(t, tinyConfig(), 4, 300, 50, 0.05, 0.6)
}

func TestAllStrategiesTrainEquivalently(t *testing.T) {
	// After a few iterations, every update strategy must land on (nearly)
	// the same model: they compute the same math.
	ref, _ := fit(tinyConfig(), 7, 4, 0.05, 5)
	for _, strat := range []embedding.Strategy{embedding.AtomicXchg, embedding.RTMStyle} {
		tr, _ := fit(tinyConfig(), 7, 4, 0.05, 5, func(tr *Trainer) { tr.Strategy = strat })
		checkModelsClose(t, strat.String(), tr.M, ref.M, 1e-3)
	}
}

func TestFusedEmbeddingMatchesTwoStep(t *testing.T) {
	a, _ := fit(tinyConfig(), 3, 4, 0.05, 5)
	b, _ := fit(tinyConfig(), 3, 4, 0.05, 5, func(tr *Trainer) { tr.FusedEmbedding = true })
	checkModelsClose(t, "fused", b.M, a.M, 1e-4)
}

// TestTrainerStepIndependentOfPoolSize: every parallel sweep of the step —
// GEMM row groups, fused epilogue, dz sweep, block-range transposes, chunked
// SGD (tensors here span a partial second chunk) — partitions work whose
// result does not depend on the partition, so one worker and three produce
// the same losses and weights bit for bit.
func TestTrainerStepIndependentOfPoolSize(t *testing.T) {
	cfg := tinyConfig()
	cfg.DenseIn, cfg.BotHidden, cfg.TopHidden = 64, []int{96}, []int{128, 64}
	a, la := fit(cfg, 3, 1, 0.05, 3)
	b, lb := fit(cfg, 3, 3, 0.05, 3)
	if !slices.Equal(la, lb) {
		t.Fatalf("losses %v on one worker, %v on three", la, lb)
	}
	checkModelsClose(t, "three workers", b.M, a.M, 0)
}

func TestBF16SplitTrainsCloseToFP32(t *testing.T) {
	cfg := tinyConfig()
	ds := tinyDataset(cfg)
	auc := func(prec Precision) float64 {
		tr := NewTrainer(NewModel(cfg, 16, 5), par.NewPool(4), embedding.RaceFree, 0.5, prec)
		for i := 0; i < 250; i++ {
			tr.Step(ds.Batch(i, cfg.MB))
		}
		return tr.EvalAUC(ds.Batch(999, 1024))
	}
	fp32, bf16split := auc(FP32), auc(BF16Split)
	if fp32 < 0.6 {
		t.Fatalf("FP32 baseline too weak: AUC %.4f", fp32)
	}
	if math.Abs(fp32-bf16split) > 0.03 {
		t.Fatalf("BF16 SplitSGD AUC %.4f deviates from FP32 %.4f", bf16split, fp32)
	}
}

func TestProfilerBreakdownCoversPhases(t *testing.T) {
	tr, _ := fit(tinyConfig(), 1, 2, 0.05, 1, func(tr *Trainer) { tr.Prof = trace.NewProfile() })
	for _, key := range []string{"embeddings", "mlp", "rest"} {
		if tr.Prof.Total(key) == 0 {
			t.Errorf("phase %q not profiled", key)
		}
	}
}

func TestModelShardOwnership(t *testing.T) {
	cfg := tinyConfig()
	const ranks = 3
	owned := map[int]int{}
	for r := 0; r < ranks; r++ {
		for t_, tab := range NewModelShard(cfg, 16, 1, r, ranks).Tables {
			if tab != nil {
				owned[t_]++
				if TableOwner(t_, ranks) != r {
					t.Fatalf("rank %d holds table %d owned by %d", r, t_, TableOwner(t_, ranks))
				}
			}
		}
	}
	for t_ := 0; t_ < cfg.Tables; t_++ {
		if owned[t_] != 1 {
			t.Fatalf("table %d owned by %d ranks", t_, owned[t_])
		}
	}
	if MaxLocalTables(cfg, ranks) != 2 {
		t.Fatal("MaxLocalTables wrong")
	}
}

func TestShardTablesMatchFullModel(t *testing.T) {
	// Seeded per-table init must make shard tables (and the MLP replica)
	// bit-identical to the full model's.
	checkModelsClose(t, "shard", NewModelShard(tinyConfig(), 16, 9, 1, 2), NewModel(tinyConfig(), 16, 9), 0)
}
