package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/optim"
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
	if Small.Tables != 8 || Small.EmbDim != 64 || Small.Lookups != 50 {
		t.Fatal("Small config wrong")
	}
	if len(Small.BotSizes()) != 3 || len(Small.TopSizes()) != 5 {
		t.Fatalf("Small MLP depths wrong: bot=%v top=%v", Small.BotSizes(), Small.TopSizes())
	}
	if Large.Tables != 64 || Large.EmbDim != 256 || Large.Lookups != 100 {
		t.Fatal("Large config wrong")
	}
	if len(Large.BotSizes())-1 != 8 || len(Large.TopSizes())-1 != 16 {
		t.Fatalf("Large MLP layer counts wrong: %d bot, %d top",
			len(Large.BotSizes())-1, len(Large.TopSizes())-1)
	}
	if MLPerf.Tables != 26 || MLPerf.EmbDim != 128 || MLPerf.DenseIn != 13 || MLPerf.Lookups != 1 {
		t.Fatal("MLPerf config wrong")
	}
	wantBot := []int{13, 512, 256, 128}
	for i, v := range MLPerf.BotSizes() {
		if v != wantBot[i] {
			t.Fatalf("MLPerf bottom %v want %v", MLPerf.BotSizes(), wantBot)
		}
	}
}

func TestTableIICharacteristics(t *testing.T) {
	// Memory capacity for all tables (Table II row 1).
	if gb := Small.TableBytes() / 1e9; math.Abs(gb-2.048) > 0.01 {
		t.Errorf("Small table capacity %.2f GB want ≈2", gb)
	}
	if gb := Large.TableBytes() / 1e9; math.Abs(gb-393.2) > 1 {
		t.Errorf("Large table capacity %.1f GB want ≈393 (paper: 384)", gb)
	}
	if gb := MLPerf.TableBytes() / 1e9; gb < 90 || gb > 105 {
		t.Errorf("MLPerf table capacity %.1f GB want ≈98", gb)
	}
	// Minimum sockets at 192 GB/socket (Table II row 2; Large needs 4... with
	// 96GB usable the paper says 4 sockets ⇒ they budget ~128 GB/socket).
	if Large.MinSockets(128e9) != 4 {
		t.Errorf("Large min sockets %d want 4", Large.MinSockets(128e9))
	}
	if Small.MinSockets(128e9) != 1 {
		t.Error("Small must fit one socket")
	}
	// Max ranks = table count (Table II row 3).
	if Small.MaxRanks() != 8 || Large.MaxRanks() != 64 || MLPerf.MaxRanks() != 26 {
		t.Error("max ranks wrong")
	}
	// Allreduce sizes (Table II row 4: 9.5 MB, 1047 MB, 9.0 MB).
	if mb := Small.AllreduceBytes() / 1e6; mb < 8 || mb > 12 {
		t.Errorf("Small allreduce %.1f MB want ≈9.5", mb)
	}
	if mb := Large.AllreduceBytes() / 1e6; mb < 900 || mb > 1200 {
		t.Errorf("Large allreduce %.0f MB want ≈1047", mb)
	}
	if mb := MLPerf.AllreduceBytes() / 1e6; mb < 2 || mb > 12 {
		t.Errorf("MLPerf allreduce %.1f MB want single-digit", mb)
	}
	// Alltoall volumes (Table II row 5: 15.8, 1024, 208 MB) in MiB.
	if mib := Small.AlltoallBytes(8192) / (1 << 20); math.Abs(mib-16) > 0.5 {
		t.Errorf("Small alltoall %.1f MiB want 16", mib)
	}
	if mib := Large.AlltoallBytes(16384) / (1 << 20); math.Abs(mib-1024) > 1 {
		t.Errorf("Large alltoall %.0f MiB want 1024", mib)
	}
	if mib := MLPerf.AlltoallBytes(16384) / (1 << 20); math.Abs(mib-208) > 1 {
		t.Errorf("MLPerf alltoall %.0f MiB want 208", mib)
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

func TestTrainingReducesLossAndLearns(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	tr := NewTrainer(m, par.NewPool(4), embedding.RaceFree, 1.0, FP32)
	ds := tinyDataset(cfg)

	eval := ds.Batch(1000, 2048)
	aucBefore := tr.EvalAUC(eval)

	const iters = 300
	var head, tail float64
	for i := 0; i < iters; i++ {
		l := tr.Step(ds.Batch(i, cfg.MB))
		if i < 50 {
			head += l
		}
		if i >= iters-50 {
			tail += l
		}
	}
	if !(tail < head) {
		t.Fatalf("avg loss did not decrease: %g -> %g", head/50, tail/50)
	}
	aucAfter := tr.EvalAUC(eval)
	if aucAfter < aucBefore+0.05 || aucAfter < 0.6 {
		t.Fatalf("AUC did not improve enough: %.4f -> %.4f", aucBefore, aucAfter)
	}
}

func TestAllStrategiesTrainEquivalently(t *testing.T) {
	// After a few iterations, every update strategy must land on (nearly)
	// the same model: they compute the same math.
	cfg := tinyConfig()
	ds := tinyDataset(cfg)
	var ref *Model
	for _, strat := range []embedding.Strategy{embedding.RaceFree, embedding.AtomicXchg, embedding.RTMStyle} {
		m := NewModel(cfg, 16, 7)
		tr := NewTrainer(m, par.NewPool(4), strat, 0.05, FP32)
		for i := 0; i < 5; i++ {
			tr.Step(ds.Batch(i, cfg.MB))
		}
		if ref == nil {
			ref = m
			continue
		}
		for ti := range m.Tables {
			for i := range m.Tables[ti].W {
				d := math.Abs(float64(m.Tables[ti].W[i] - ref.Tables[ti].W[i]))
				if d > 1e-3 {
					t.Fatalf("strategy %v table %d diverged by %g", strat, ti, d)
				}
			}
		}
	}
}

func TestFusedEmbeddingMatchesTwoStep(t *testing.T) {
	cfg := tinyConfig()
	ds := tinyDataset(cfg)
	a := NewModel(cfg, 16, 3)
	b := NewModel(cfg, 16, 3)
	trA := NewTrainer(a, par.NewPool(4), embedding.RaceFree, 0.05, FP32)
	trB := NewTrainer(b, par.NewPool(4), embedding.RaceFree, 0.05, FP32)
	trB.FusedEmbedding = true
	for i := 0; i < 5; i++ {
		trA.Step(ds.Batch(i, cfg.MB))
		trB.Step(ds.Batch(i, cfg.MB))
	}
	for ti := range a.Tables {
		for i := range a.Tables[ti].W {
			if d := math.Abs(float64(a.Tables[ti].W[i] - b.Tables[ti].W[i])); d > 1e-4 {
				t.Fatalf("fused diverged at table %d by %g", ti, d)
			}
		}
	}
}

// TestTrainerStepIndependentOfPoolSize: every parallel sweep of the step —
// GEMM row groups, fused epilogue, dz sweep, block-range transposes, chunked
// SGD (tensors here span a partial second chunk) — partitions work whose
// result does not depend on the partition, so one worker and three produce
// the same weights bit for bit.
func TestTrainerStepIndependentOfPoolSize(t *testing.T) {
	cfg := tinyConfig()
	cfg.DenseIn, cfg.BotHidden, cfg.TopHidden = 64, []int{96}, []int{128, 64}
	ds := tinyDataset(cfg)
	a, b := NewModel(cfg, 16, 3), NewModel(cfg, 16, 3)
	trA := NewTrainer(a, par.NewPool(1), embedding.RaceFree, 0.05, FP32)
	trB := NewTrainer(b, par.NewPool(3), embedding.RaceFree, 0.05, FP32)
	for i := 0; i < 3; i++ {
		mb := ds.Batch(i, cfg.MB)
		if la, lb := trA.Step(mb), trB.Step(mb); la != lb {
			t.Fatalf("step %d: loss %v on one worker, %v on three", i, la, lb)
		}
	}
	params := func(m *Model) (ps [][]float32) {
		for _, stack := range []*mlp.MLP{m.Bot, m.Top} {
			stack.VisitParams(func(_ string, p []float32) { ps = append(ps, p) })
		}
		return ps
	}
	pa, pb := params(a), params(b)
	for ti := range pa {
		for i := range pa[ti] {
			if math.Float32bits(pa[ti][i]) != math.Float32bits(pb[ti][i]) {
				t.Fatalf("tensor %d element %d: %g vs %g", ti, i, pa[ti][i], pb[ti][i])
			}
		}
	}
}

func TestBF16SplitTrainsCloseToFP32(t *testing.T) {
	cfg := tinyConfig()
	ds := tinyDataset(cfg)
	eval := ds.Batch(999, 1024)

	train := func(prec Precision) float64 {
		m := NewModel(cfg, 16, 5)
		tr := NewTrainer(m, par.NewPool(4), embedding.RaceFree, 0.5, prec)
		for i := 0; i < 250; i++ {
			tr.Step(ds.Batch(i, cfg.MB))
		}
		return tr.EvalAUC(eval)
	}
	fp32 := train(FP32)
	bf16split := train(BF16Split)
	if fp32 < 0.6 {
		t.Fatalf("FP32 baseline too weak: AUC %.4f", fp32)
	}
	if math.Abs(fp32-bf16split) > 0.03 {
		t.Fatalf("BF16 SplitSGD AUC %.4f deviates from FP32 %.4f", bf16split, fp32)
	}
}

func TestProfilerBreakdownCoversPhases(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	tr := NewTrainer(m, par.NewPool(2), embedding.RaceFree, 0.05, FP32)
	tr.Prof = trace.NewProfile()
	tr.Step(tinyDataset(cfg).Batch(0, cfg.MB))
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
		sh := NewModelShard(cfg, 16, 1, r, ranks)
		for t_, tab := range sh.Tables {
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
	// Seeded per-table init must make shard tables bit-identical to the full
	// model's tables.
	cfg := tinyConfig()
	full := NewModel(cfg, 16, 9)
	sh := NewModelShard(cfg, 16, 9, 1, 2)
	for ti, tab := range sh.Tables {
		if tab == nil {
			continue
		}
		for i := range tab.W {
			if tab.W[i] != full.Tables[ti].W[i] {
				t.Fatalf("table %d differs between shard and full model", ti)
			}
		}
	}
}

func TestConcatInteractionTrains(t *testing.T) {
	cfg := tinyConfig()
	cfg.ConcatInteraction = true
	if cfg.InterDim() != (cfg.Tables+1)*cfg.EmbDim {
		t.Fatalf("concat InterDim=%d", cfg.InterDim())
	}
	m := NewModel(cfg, 16, 1)
	tr := NewTrainer(m, par.NewPool(2), embedding.RaceFree, 1.0, FP32)
	ds := tinyDataset(cfg)
	eval := ds.Batch(999, 2048)
	before := tr.EvalAUC(eval)
	var head, tail float64
	for i := 0; i < 200; i++ {
		l := tr.Step(ds.Batch(i, cfg.MB))
		if i < 30 {
			head += l
		}
		if i >= 170 {
			tail += l
		}
	}
	if tail >= head {
		t.Fatalf("concat model loss did not decrease: %g -> %g", head/30, tail/30)
	}
	if after := tr.EvalAUC(eval); after < before+0.03 {
		t.Fatalf("concat model AUC did not improve: %.4f -> %.4f", before, after)
	}
}

func TestConcatDistributedMatchesSingle(t *testing.T) {
	cfg := tinyConfig()
	cfg.ConcatInteraction = true
	ref, _ := trainSingle(cfg, 64, 2, 17, 0.5)
	dc := distTestConfig(cfg, 2, 64, 2, Variant{Alltoall, cluster.CCLBackend}, true)
	res := mustRun(dc)
	checkMLPClose(t, "concat dist", res.Models[0], ref, 2e-3)
}

func TestTrainerLRSchedule(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, 16, 1)
	tr := NewTrainer(m, par.NewPool(2), embedding.RaceFree, 0, FP32)
	tr.Schedule = optim.LRSchedule{Base: 1, WarmupSteps: 2, DecayStart: 4, DecaySteps: 2, EndLR: 0.1}
	ds := tinyDataset(cfg)
	wantLRs := []float32{0.5, 1, 1, 1, 1, 0.325}
	for i, want := range wantLRs {
		tr.Step(ds.Batch(i, cfg.MB))
		if tr.LR != want {
			t.Fatalf("step %d: LR=%g want %g", i, tr.LR, want)
		}
	}
}
