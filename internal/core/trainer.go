package core

import (
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/loss"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

// Precision selects the training numerics of §VII.
type Precision int

const (
	// FP32 is the reference full-precision training.
	FP32 Precision = iota
	// BF16Split is Split-SGD-BF16: BF16 working weights, exact FP32 updates
	// through the hi/lo split, no master weights.
	BF16Split
	// BF16Split8LSB keeps only 8 extra LSBs — the §VII ablation that fails
	// to reach reference accuracy.
	BF16Split8LSB
	// FP24 stores weights in the 1-8-15 format, losing update bits below
	// its mantissa every step.
	FP24
)

// String returns the Fig. 16 label.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32 (Ref)"
	case BF16Split:
		return "BF16 (SplitSGD)"
	case BF16Split8LSB:
		return "BF16 (SplitSGD, 8 LSB)"
	case FP24:
		return "FP24 (1-8-15)"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Trainer runs single-socket DLRM training — the system whose optimization
// Figs. 7/8 chart and whose mixed-precision variants Fig. 16 compares. A
// step is the distributed iteration at one rank: Step walks the step list
// buildPlan makes for Ranks = 1 and runs each step's executor kernel, so the
// kernels of a training iteration, and their order, are written once.
type Trainer struct {
	M        *Model
	Pool     *par.Pool
	Strategy embedding.Strategy
	// FusedEmbedding applies the fused backward+update of §III-A instead of
	// Backward followed by Update (valid for RaceFree semantics).
	FusedEmbedding bool
	LR             float32
	Prec           Precision

	// dc is the one-rank iteration: its plan is rebuilt when the batch size
	// changes, and only its kernels are read — the charges are the
	// simulator's. x runs them on M with the trainer's numerics, on the
	// caller's batch (rb); every buffer it reuses across steps is in its
	// workspace or the model's, so the steady-state step is allocation-free.
	// stepTime[i] is the host time Step has spent in plan.iter[i] since the
	// plan was built or ResetPhaseTimes last ran.
	dc       DistConfig
	plan     *plan
	stepTime []time.Duration
	x        *executor
	rb       data.RankBatch
	pred     *Predictor // Predict's forward-only path, built on first use
}

// NewTrainer builds a trainer over model m with the given embedding-update
// strategy and precision.
func NewTrainer(m *Model, pool *par.Pool, strat embedding.Strategy, lr float32, prec Precision) *Trainer {
	tr := &Trainer{M: m, Pool: pool, Strategy: strat, LR: lr, Prec: prec}
	tr.dc = DistConfig{Cfg: m.Cfg, Ranks: 1, Iters: 1, Variant: Variant{Strategy: Alltoall},
		Socket: perfmodel.CLX8280, Sync: true, BucketBytes: FlatBuckets}
	tr.dc.RunCfg = &tr.dc.Cfg
	tr.x = newExecutor(&tr.dc, m, pool, &DistWorkspace{}, prec)
	tr.x.rb = &tr.rb
	return tr
}

// phases names the Fig. 8 phase each kernel's time is charged to. The
// collective kernels have none: at one rank they move nothing.
var phases = [nKernels]string{
	kEmbForward: "embeddings", kEmbUpdate: "embeddings",
	kForwardDense: "mlp", kBackward: "mlp", kBackwardInter: "mlp", kSGD: "mlp", kSGDAll: "mlp",
	kLoss: "rest",
}

// Step runs one training iteration on mb and returns the minibatch loss.
// Each kernel step's host time is added to stepTime with a start/stop stamp
// (not a closure), so the steady-state step performs zero heap allocations.
func (tr *Trainer) Step(mb *data.MiniBatch) float64 {
	if tr.plan == nil || tr.dc.GlobalN != mb.N {
		tr.dc.GlobalN = mb.N
		tr.plan = tr.dc.buildPlan()
		tr.stepTime = make([]time.Duration, len(tr.plan.iter))
		tr.x.ws.prepare(&tr.dc, 0)
	}
	x := tr.x
	x.strategy, x.fused, x.lr = tr.Strategy, tr.FusedEmbedding, tr.LR
	tr.rb.Local, tr.rb.Owned = mb, mb.Sparse
	for i := range tr.plan.iter {
		s := &tr.plan.iter[i]
		if phases[s.kernel] == "" {
			continue
		}
		t0 := time.Now()
		x.run(s, 0)
		tr.stepTime[i] += time.Since(t0)
	}
	return x.loss
}

// PhaseTime returns the host time Step has spent in the Fig. 8 phase
// ("embeddings", "mlp" or "rest") since the plan was built — the first Step,
// or the first after a batch-size change — or ResetPhaseTimes last ran.
func (tr *Trainer) PhaseTime(phase string) time.Duration {
	var d time.Duration
	for i, t := range tr.stepTime {
		if phases[tr.plan.iter[i].kernel] == phase {
			d += t
		}
	}
	return d
}

// ResetPhaseTimes zeroes the per-phase times, e.g. after a warm-up step.
func (tr *Trainer) ResetPhaseTimes() {
	clear(tr.stepTime)
}

// RunOpts configures Trainer.Run: the data source is part of the run
// configuration — the same shape DistConfig gives the distributed runs —
// instead of a per-entry-point parameter list.
type RunOpts struct {
	// Dataset is the run's source (required): Run wraps it in a
	// prefetching BatchLoader (closed on return) reading Batch samples per
	// step — the model config's MB when Batch is 0 — starting at batch
	// index Start.
	Dataset data.Dataset
	Batch   int
	Start   int
	// Iters is the number of training steps (>= 1).
	Iters int
	// Each, when non-nil, observes every iteration's loss.
	Each func(it int, loss float64)
	// CheckpointEvery, with Checkpoint, saves the model every N global
	// steps — at step counts (Start+i+1) divisible by N, so a resumed run
	// keeps the original cadence. Both must be set together.
	CheckpointEvery int
	// Checkpoint persists the model at a checkpoint boundary; step is the
	// global step count just completed. A returned error aborts the run.
	Checkpoint func(step int, m *Model) error
}

// Run consumes o.Iters batches from o.Dataset and steps the trainer on
// each — the single-socket training loop, whose prefetch
// goroutine generates batch i+1 while Step trains on batch i.
func (tr *Trainer) Run(o RunOpts) error {
	if o.Iters < 1 {
		return fmt.Errorf("core: Iters=%d, want >= 1", o.Iters)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery=%d, want >= 0", o.CheckpointEvery)
	}
	if (o.CheckpointEvery > 0) != (o.Checkpoint != nil) {
		return fmt.Errorf("core: RunOpts needs CheckpointEvery and Checkpoint together")
	}
	if o.Dataset == nil {
		return fmt.Errorf("core: RunOpts needs a Dataset")
	}
	batch := o.Batch
	if batch == 0 {
		batch = tr.M.Cfg.MB
	}
	if batch < 1 {
		return fmt.Errorf("core: batch size %d, want >= 1", batch)
	}
	ld := data.NewBatchLoader(o.Dataset, batch, o.Start)
	defer ld.Close()
	for i := 0; i < o.Iters; i++ {
		l := tr.Step(ld.Next().Local)
		if o.Each != nil {
			o.Each(i, l)
		}
		if o.CheckpointEvery > 0 && (o.Start+i+1)%o.CheckpointEvery == 0 {
			if err := o.Checkpoint(o.Start+i+1, tr.M); err != nil {
				return fmt.Errorf("core: checkpoint at step %d: %w", o.Start+i+1, err)
			}
		}
	}
	return nil
}

// Predict returns the click probabilities for a batch (no state change
// besides the saved forward cache).
func (tr *Trainer) Predict(mb *data.MiniBatch) []float32 {
	if tr.pred == nil {
		tr.pred = NewPredictor(tr.M, tr.Pool)
	}
	out := make([]float32, mb.N)
	tr.pred.PredictInto(mb, out)
	return out
}

// EvalAUC computes ROC AUC over a batch.
func (tr *Trainer) EvalAUC(mb *data.MiniBatch) float64 {
	return loss.AUC(tr.Predict(mb), mb.Labels)
}
