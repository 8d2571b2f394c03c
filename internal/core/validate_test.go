package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

// validConfig is a baseline that must pass Validate; each rejection case
// below breaks exactly one thing.
func validConfig() DistConfig { return at(Small, 4) }

// functional makes dc a functional run of cfg.
func functional(dc *DistConfig, cfg Config) {
	dc.RunCfg, dc.Dataset = &cfg, data.NewClickLog(1, cfg.DenseIn, cfg.Rows, cfg.Lookups)
}

func TestValidateAcceptsBaseline(t *testing.T) {
	dc := validConfig()
	if err := dc.Validate(); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	// The overlapped+bucketed default schedule with the autotuner's full
	// channel count is the other blessed shape.
	dc.Sync, dc.BucketBytes, dc.bucketChannels = false, 0, 3
	if err := dc.Validate(); err != nil {
		t.Fatalf("overlapped bucketed config rejected: %v", err)
	}
}

// TestValidateRejections is the table of incoherent knob combinations the
// API-redesign satellite turns from silent misbehavior (or deep panics in
// rank goroutines) into immediate, descriptive errors.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(dc *DistConfig)
		want string // substring of the error
	}{
		{"zero ranks", func(dc *DistConfig) { dc.Ranks = 0 }, "Ranks=0"},
		{"zero iters", func(dc *DistConfig) { dc.Iters = 0 }, "Iters=0"},
		{"zero globalN", func(dc *DistConfig) { dc.GlobalN = 0 }, "GlobalN=0"},
		{"indivisible globalN", func(dc *DistConfig) { dc.GlobalN = 100; dc.Ranks = 3; dc.Topo = nil }, "not divisible"},
		{"too many ranks", all(onRanks(Small.Tables+4), func(dc *DistConfig) { dc.GlobalN = dc.Ranks * 8 }), "exceeds max"},
		{"broken model config", func(dc *DistConfig) { dc.Cfg.Rows = dc.Cfg.Rows[:2] }, "row counts"},
		{"unknown strategy", func(dc *DistConfig) { dc.Variant.Strategy = 99 }, "unknown comm strategy"},
		{"unknown backend", func(dc *DistConfig) { dc.Variant.Backend = 7 }, "unknown backend"},
		{"unknown loader mode", func(dc *DistConfig) { dc.Loader = 9 }, "unknown loader mode"},
		{"unknown allreduce", func(dc *DistConfig) { dc.Allreduce = comm.AllreduceAuto + 1 }, "unknown allreduce"},
		{"negative comm cores", func(dc *DistConfig) { dc.CommCores = -2 }, "CommCores=-2"},
		{"comm cores eat the socket", func(dc *DistConfig) { dc.CommCores = dc.Socket.Cores }, "no compute cores"},
		{"interference below 1", func(dc *DistConfig) { dc.Interference = 0.5 }, "Interference"},
		{"NaN interference", func(dc *DistConfig) { dc.Interference = math.NaN() }, "Interference=NaN"},
		{"topology too small", func(dc *DistConfig) { dc.Topo = fabric.NewPrunedFatTree(2, 12.5e9) }, "topology has 2 sockets"},
		{"ranks without a topology", func(dc *DistConfig) { dc.Topo = nil }, "need a fabric topology"},
		{"zero socket", func(dc *DistConfig) { dc.Socket = perfmodel.Socket{} }, "Socket"},
		{"socket without memory bandwidth", func(dc *DistConfig) { dc.Socket.MemBW = 0 }, "MemBW"},
		{"socket without embedding efficiency", func(dc *DistConfig) { dc.Socket.EmbedEff = 0 }, "EmbedEff"},
		{"negative bucket bytes", func(dc *DistConfig) { dc.BucketBytes = -7 }, "BucketBytes=-7"},
		{"negative emb cache", func(dc *DistConfig) { dc.EmbCacheBytes = -64 }, "EmbCacheBytes=-64"},
		{"negative cold bw", func(dc *DistConfig) { dc.EmbCacheBytes, dc.ColdTierBW = 64<<20, -1 }, "ColdTierBW"},
		{"negative emb skew", tiered(64<<20, -0.5), "EmbSkew"},
		{"cache without cold bw", func(dc *DistConfig) { dc.EmbCacheBytes = 64 << 20 }, "without ColdTierBW"},
		{"cold bw without cache", func(dc *DistConfig) { dc.ColdTierBW = DefaultColdTierBW }, "without EmbCacheBytes"},
		{"emb skew without cache", func(dc *DistConfig) { dc.EmbSkew = 1.05 }, "without EmbCacheBytes"},
		{"functional without dataset", func(dc *DistConfig) { functional(dc, dc.Cfg); dc.Dataset = nil }, "requires a Dataset"},
		{"functional table mismatch", func(dc *DistConfig) {
			run := dc.Cfg.Scaled(1)
			run.Tables = dc.Cfg.Tables / 2
			run.Rows = run.Rows[:run.Tables]
			functional(dc, run)
		}, "shards would not line up"},
		{"functional top layer-count mismatch", func(dc *DistConfig) {
			run := dc.Cfg
			run.TopHidden = run.TopHidden[:len(run.TopHidden)-1]
			functional(dc, run)
			dc.Sync, dc.BucketBytes = false, 0
		}, "top MLP has 3 layers, paper-scale Cfg 4"},
		{"functional bottom layer-count mismatch", func(dc *DistConfig) {
			run := dc.Cfg
			run.BotHidden = append([]int{128}, run.BotHidden...)
			functional(dc, run)
			dc.Sync, dc.BucketBytes = false, 0
		}, "bottom MLP has 3 layers, paper-scale Cfg 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc := validConfig()
			tc.mut(&dc)
			err := dc.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The validated entry point must surface the same error.
			if _, runErr := dc.Run(); runErr == nil || runErr.Error() != err.Error() {
				t.Fatalf("DistConfig.Run error %v, want %v", runErr, err)
			}
		})
	}
}

// TestMustRunPanicsOnInvalid pins mustRun's contract: a Validate error
// surfaces as a panic at the entry point rather than deep inside a rank
// goroutine.
func TestMustRunPanicsOnInvalid(t *testing.T) {
	dc := validConfig()
	dc.GlobalN++
	defer func() {
		if recover() == nil {
			t.Fatal("mustRun did not panic on an invalid config")
		}
	}()
	mustRun(dc)
}

// TestDistConfigRunMatchesWrapper checks Run and the panicking wrapper
// execute identically.
func TestDistConfigRunMatchesWrapper(t *testing.T) {
	dc := validConfig()
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if legacy := mustRun(dc); legacy.IterSeconds != res.IterSeconds {
		t.Fatalf("Run %v s/iter, mustRun %v s/iter", res.IterSeconds, legacy.IterSeconds)
	}
}

// TestExposuresOrderContract pins the documented Exposures() order: sorted
// ascending by label, covering both maps, no duplicates.
func TestExposuresOrderContract(t *testing.T) {
	res := &DistResult{
		BusyPerIter: map[string]float64{"fwd-a2a": 1, "allreduce": 2, "ar-top:1": 3},
		WaitPerIter: map[string]float64{"barrier": 4, "allreduce": 1},
	}
	labels := func(exps []Exposure) (ls []string) {
		for _, e := range exps {
			ls = append(ls, e.Label)
		}
		return ls
	}
	if got, want := labels(res.Exposures()), []string{"allreduce", "ar-top:1", "barrier", "fwd-a2a"}; !slices.Equal(got, want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	// And on a real run: two identical runs list identical labels in
	// identical order (map iteration must not leak through).
	dc := validConfig()
	if a, b := labels(mustRun(dc).Exposures()), labels(mustRun(dc).Exposures()); !slices.Equal(a, b) {
		t.Fatalf("exposure order not deterministic: %v vs %v", a, b)
	}
}

// TestTrainerRunUnifiedEntry covers the RunOpts entry: a run over a Dataset
// trains as the same steps on the dataset's batches taken by hand, and
// misconfigurations error.
func TestTrainerRunUnifiedEntry(t *testing.T) {
	cfg := Small.Scaled(1.0 / 64)
	cfg.MB = 32
	ds := data.NewClickLog(7, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	newTrainer := func() *Trainer {
		return NewTrainer(NewModel(cfg, 16, 5), par.Default, embedding.RaceFree, 0.5, FP32)
	}

	var viaRun []float64
	if err := newTrainer().Run(RunOpts{Dataset: ds, Iters: 5, Each: func(_ int, l float64) {
		viaRun = append(viaRun, l)
	}}); err != nil {
		t.Fatal(err)
	}
	tr := newTrainer()
	var byHand []float64
	for i := range 5 {
		byHand = append(byHand, tr.Step(ds.Batch(i, cfg.MB)))
	}
	if len(viaRun) != 5 || !slices.Equal(viaRun, byHand) {
		t.Fatalf("losses %v via Run, %v by hand, want 5 equal", viaRun, byHand)
	}

	for _, tc := range []struct {
		name string
		o    RunOpts
	}{
		{"no Dataset", RunOpts{Iters: 1}},
		{"zero iters", RunOpts{Dataset: ds}},
	} {
		if err := tr.Run(tc.o); err == nil {
			t.Errorf("%s: Run accepted an invalid RunOpts", tc.name)
		}
	}
}
