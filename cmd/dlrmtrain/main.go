// Command dlrmtrain trains a DLRM end to end: single-socket for real on
// this host, or hybrid-parallel on the simulated multi-socket cluster.
//
// Usage:
//
//	dlrmtrain -config small -iters 100 -strategy racefree
//	dlrmtrain -config mlperf -precision bf16split -iters 400 -eval 50
//	dlrmtrain -config large -ranks 16 -dist -iters 5       # simulated cluster
//	dlrmtrain -config mlperf -dist -ranks 26 -loader global # §VI-D2 loader artifact
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/fabric"
	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

func main() {
	configName := flag.String("config", "small", "model config: small, large, mlperf, tiny")
	iters := flag.Int("iters", 50, "training iterations")
	mb := flag.Int("mb", 0, "minibatch (0 = config default)")
	lr := flag.Float64("lr", 0.5, "learning rate")
	rowScale := flag.Float64("rowscale", 1.0/64, "embedding-table row scaling to fit host memory")
	stratName := flag.String("strategy", "racefree", "embedding update: reference, atomic, rtm, racefree")
	precName := flag.String("precision", "fp32", "numerics: fp32, bf16split, bf16split8, fp24")
	evalEvery := flag.Int("eval", 0, "evaluate ROC AUC every N iterations (0 = off)")
	dist := flag.Bool("dist", false, "run on the simulated multi-socket cluster")
	ranks := flag.Int("ranks", 8, "simulated rank count (with -dist)")
	loaderName := flag.String("loader", "sharded", "data pipeline (with -dist): none, global, sharded")
	tune := flag.Bool("autotune", false, "with -dist: autotune the communication schedule before running")
	ckptEvery := flag.Int("checkpoint-every", 0, "save a checkpoint every N steps (0 = off)")
	ckptPath := flag.String("checkpoint", "dlrm.ckpt", "checkpoint file (with -checkpoint-every / -resume)")
	resume := flag.Bool("resume", false, "resume training from -checkpoint")
	churn := flag.Bool("churn", false, "with -dist: inject a mid-run rank failure and recover elastically")
	embCache := flag.Int("emb-cache-bytes", 0, "with -dist: per-rank hot-row cache budget; 0 keeps shards in RAM")
	coldBW := flag.Float64("cold-bw", 0, "with -dist: cold-tier bandwidth in B/s (required with -emb-cache-bytes)")
	flag.Parse()

	// Checked before any model is built: a bad value would otherwise train
	// (-rowscale 0 or -1) or fail only after the build.
	if !(*rowScale > 0) || math.IsInf(*rowScale, 1) {
		log.Fatalf("-rowscale %g: need a positive, finite scale", *rowScale)
	}
	if math.IsNaN(*lr) || math.IsInf(*lr, 0) {
		log.Fatalf("-lr %g: need a finite learning rate", *lr)
	}
	if *iters < 1 {
		log.Fatalf("-iters %d: need at least 1", *iters)
	}
	if *mb < 0 {
		log.Fatalf("-mb %d: need 0 (the config's default) or more", *mb)
	}
	if *evalEvery < 0 {
		log.Fatalf("-eval %d: need 0 (off) or more", *evalEvery)
	}

	cfg, ok := map[string]core.Config{
		"small":  core.Small,
		"large":  core.Large,
		"mlperf": core.MLPerf,
		"tiny": {
			Name: "Tiny", MB: 128, GlobalMB: 256, LocalMB: 64,
			Lookups: 4, Tables: 8, EmbDim: 32,
			Rows:    []int{5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000},
			DenseIn: 16, BotHidden: []int{64}, TopHidden: []int{128, 64},
		},
	}[strings.ToLower(*configName)]
	if !ok {
		log.Fatalf("unknown config %q", *configName)
	}

	if *dist {
		mode, ok := map[string]core.LoaderMode{
			"none":    core.LoaderNone,
			"global":  core.LoaderGlobalMB,
			"sharded": core.LoaderSharded,
		}[strings.ToLower(*loaderName)]
		if !ok {
			log.Fatalf("unknown loader %q", *loaderName)
		}
		runDistributed(cfg, *ranks, *iters, mode, *tune, *churn, *embCache, *coldBW)
		return
	}

	strat, ok := map[string]embedding.Strategy{
		"reference": embedding.Reference,
		"atomic":    embedding.AtomicXchg,
		"rtm":       embedding.RTMStyle,
		"racefree":  embedding.RaceFree,
	}[strings.ToLower(*stratName)]
	if !ok {
		log.Fatalf("unknown strategy %q", *stratName)
	}
	prec, ok := map[string]core.Precision{
		"fp32":       core.FP32,
		"bf16split":  core.BF16Split,
		"bf16split8": core.BF16Split8LSB,
		"fp24":       core.FP24,
	}[strings.ToLower(*precName)]
	if !ok {
		log.Fatalf("unknown precision %q", *precName)
	}

	scaled := cfg.Scaled(*rowScale)
	batch := *mb
	if batch == 0 {
		batch = scaled.MB
	}
	if batch == 0 {
		batch = 512
	}
	const dataSeed = 7
	ds := data.NewClickLog(dataSeed, scaled.DenseIn, scaled.Rows, scaled.Lookups)
	model := core.NewModel(scaled, 16, 1)
	tr := core.NewTrainer(model, par.Default, strat, float32(*lr), prec)
	eval := ds.Batch(1<<20, 4096)

	startIter := 0
	if *resume {
		st, err := loadCheckpoint(model, *ckptPath)
		if err != nil {
			log.Fatalf("resume from %s: %v", *ckptPath, err)
		}
		if st != nil {
			startIter = int(st.Iter)
			if st.LR > 0 {
				tr.LR = st.LR
			}
		}
		fmt.Printf("resumed from %s at step %d (lr=%g)\n", *ckptPath, startIter, tr.LR)
	}

	fmt.Printf("training %s (rows x%.3g), MB=%d, %s, %s, lr=%g, %s GEMM kernel, %s embedding kernel\n",
		scaled.Name, *rowScale, batch, strat, prec, *lr, gemm.KernelISA(), embedding.KernelISA())
	start := time.Now()
	// The run owns its streaming loader (RunOpts.Dataset): batch i+1 is
	// prefetched on its own goroutine while Step trains on batch i,
	// staging into two reused buffers — the single-socket form of the
	// sharded pipeline. Start places a resumed run at the checkpoint's
	// batch index, so it trains the exact stream the original would have.
	o := core.RunOpts{
		Dataset: ds,
		Batch:   batch,
		Start:   startIter,
		Iters:   *iters,
		Each: func(i int, l float64) {
			if *evalEvery > 0 && (i+1)%*evalEvery == 0 {
				fmt.Printf("iter %4d  loss %.4f  auc %.4f\n", startIter+i+1, l, tr.EvalAUC(eval))
			} else if (i+1)%10 == 0 {
				fmt.Printf("iter %4d  loss %.4f\n", startIter+i+1, l)
			}
		},
	}
	if *ckptEvery > 0 {
		o.CheckpointEvery = *ckptEvery
		o.Checkpoint = func(step int, m *core.Model) error {
			if err := saveCheckpoint(m, *ckptPath, core.TrainerState{
				Iter: int64(step), Seed: dataSeed, LR: tr.LR,
			}); err != nil {
				return err
			}
			fmt.Printf("iter %4d  checkpoint -> %s\n", step, *ckptPath)
			return nil
		}
	}
	if err := tr.Run(o); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("done: %d iters in %v (%.1f ms/iter), final AUC %.4f\n",
		*iters, elapsed.Round(time.Millisecond),
		elapsed.Seconds()*1e3/float64(*iters), tr.EvalAUC(eval))
}

// saveCheckpoint writes the model + trainer state atomically: a temp file
// in the target's directory, synced, then renamed over the destination — a
// crash mid-write can never leave a torn checkpoint behind.
func saveCheckpoint(m *core.Model, path string, st core.TrainerState) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := m.SaveWithState(tmp, st); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadCheckpoint restores model weights and returns the trainer state (nil
// for a v0 weights-only file).
func loadCheckpoint(m *core.Model, path string) (*core.TrainerState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return m.LoadWithState(f)
}

func runDistributed(cfg core.Config, ranks, iters int, mode core.LoaderMode, tune, churn bool, embCache int, coldBW float64) {
	if ranks < 1 {
		log.Fatalf("-ranks %d: want at least 1", ranks)
	}
	if ranks > cfg.MaxRanks() {
		log.Fatalf("%s supports at most %d ranks (one table per rank minimum)", cfg.Name, cfg.MaxRanks())
	}
	gn := cfg.GlobalMB - cfg.GlobalMB%ranks
	fmt.Printf("simulating %s on %d sockets (OPA cluster), GN=%d, CCL-Alltoall, %s loader\n",
		cfg.Name, ranks, gn, mode)
	dc := core.DistConfig{
		Cfg:     cfg,
		Ranks:   ranks,
		GlobalN: gn,
		Iters:   iters,
		Variant: core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend},
		Topo:    fabric.NewPrunedFatTree(ranks, 12.5e9),
		Socket:  perfmodel.CLX8280,
		Loader:  mode,
		// Schedule knobs at their zero values: bucketed+overlapped default.
	}
	if embCache > 0 {
		dc.EmbCacheBytes = embCache
		dc.ColdTierBW = coldBW
		fmt.Printf("tiered embedding store: %d MiB hot cache, cold tier %.1f GB/s\n",
			embCache>>20, coldBW/1e9)
	}
	// Checked before the churn and autotune branches: the autotuner's
	// probes panic on an invalid configuration.
	if err := dc.Validate(); err != nil {
		log.Fatal(err)
	}
	if churn {
		runChurn(dc)
		return
	}
	if tune {
		var rep *core.AutotuneReport
		dc, rep = core.AutotuneDistConfig(dc, core.AutotuneOpts{})
		fmt.Printf("autotuned schedule: %s (%+.1f%% vs default, %d candidates probed)\n",
			rep.Schedule, (rep.TunedSeconds/rep.BaselineSeconds-1)*100, rep.Candidates)
	}
	res, err := dc.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual time per iteration: %.2f ms\n", res.IterSeconds*1e3)
	fmt.Printf("  compute: %.2f ms\n", res.ComputePerIter*1e3)
	if l := res.PrepPerIter["loader"]; l > 0 { // serial charge (sync schedule only)
		fmt.Printf("  loader: %.2f ms\n", l*1e3)
	}
	// Per-label exposed-vs-busy split: "ar-top"/"ar-bot" under the bucketed
	// default, "allreduce" under the flat schedules, "loader" when the
	// prefetch stream carries the read.
	for _, e := range res.Exposures() {
		fmt.Printf("  %s: busy %.2f ms, exposed %.2f ms (%.0f%% hidden)\n",
			e.Label, e.Busy*1e3, e.Exposed*1e3, e.HiddenShare()*100)
	}
}

// runChurn is the -churn demo: kill a rank halfway through the run and let
// the elastic driver recover — detect, restore from the newest durable
// shard checkpoint, replay, continue at R-1 ranks.
func runChurn(dc core.DistConfig) {
	every := dc.Iters / 5
	if every < 1 {
		every = 1
	}
	failAt := dc.Iters / 2
	if failAt < 1 {
		failAt = 1
	}
	ec := core.ElasticConfig{
		Base: dc,
		Plan: &cluster.FaultPlan{Events: []cluster.FaultEvent{
			{Kind: cluster.RankFail, Iter: failAt, Rank: dc.Ranks / 2},
		}},
		CheckpointEvery: every,
	}
	fmt.Printf("churn: checkpoint every %d iters; rank %d fails after iter %d\n",
		every, dc.Ranks/2, failAt-1)
	res, err := core.RunElastic(ec)
	if err != nil {
		log.Fatal(err)
	}
	for _, seg := range res.Segments {
		fmt.Printf("  segment @%d: %d iters on %d ranks, %.2f virtual-ms/iter (%s)\n",
			seg.StartIter, seg.Iters, seg.Ranks, seg.Res.IterSeconds*1e3, seg.Schedule)
	}
	for _, rec := range res.Recoveries {
		fmt.Printf("  %s at iter %d: %d->%d ranks, restored from ckpt %d, replayed %d iters\n",
			rec.Kind, rec.Iter, rec.OldRanks, rec.NewRanks, rec.CkptIter, rec.ReplayIters)
		fmt.Printf("    time-to-recover %.2f ms (detect %.2f + restore %.2f + replay %.2f)\n",
			rec.TimeToRecover()*1e3, rec.DetectSeconds*1e3, rec.RestoreSeconds*1e3, rec.ReplaySeconds*1e3)
	}
	fmt.Printf("effective virtual time per iteration under churn: %.2f ms (%.1f%% overhead)\n",
		res.EffectiveIterSeconds()*1e3, res.OverheadSeconds/res.TotalSeconds*100)
}
