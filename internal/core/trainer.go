package core

import (
	"fmt"
	"time"

	"repro/internal/bf16"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/loss"
	"repro/internal/mlp"
	"repro/internal/optim"
	"repro/internal/par"
	"repro/internal/trace"
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
// Figs. 7/8 chart and whose mixed-precision variants Fig. 16 compares.
type Trainer struct {
	M        *Model
	Pool     *par.Pool
	Strategy embedding.Strategy
	// FusedEmbedding applies the fused backward+update of §III-A instead of
	// Backward followed by Update (valid for RaceFree semantics).
	FusedEmbedding bool
	LR             float32
	Prec           Precision
	// Prof, when non-nil, accumulates wall time per phase (embeddings, mlp,
	// rest) for the Fig. 8 breakdown.
	Prof *trace.Profile

	mlpOpts   []optim.Optimizer
	sgd       sgdCall
	embSplits []*bf16.Split

	// ws owns every buffer Step reuses across iterations; it is shared with
	// the model's dense passes so the whole iteration is allocation-free in
	// steady state.
	ws *Workspace
}

// NewTrainer builds a trainer over model m with the given embedding-update
// strategy and precision.
func NewTrainer(m *Model, pool *par.Pool, strat embedding.Strategy, lr float32, prec Precision) *Trainer {
	tr := &Trainer{M: m, Pool: pool, Strategy: strat, LR: lr, Prec: prec, ws: m.workspace()}
	tr.initOptimizers()
	return tr
}

func (tr *Trainer) initOptimizers() {
	mk := func(params []float32) optim.Optimizer {
		switch tr.Prec {
		case BF16Split:
			return optim.NewSplitSGD(params)
		case BF16Split8LSB:
			s := optim.NewSplitSGD(params)
			s.LimitLoTo8Bits = true
			return s
		case FP24:
			return optim.NewQuantizedSGD(params, bf16.RoundFP24, "FP24")
		default:
			return optim.NewSGD(params)
		}
	}
	for _, m := range []interface {
		VisitParams(func(string, []float32))
	}{tr.M.Bot, tr.M.Top} {
		m.VisitParams(func(_ string, p []float32) {
			tr.mlpOpts = append(tr.mlpOpts, mk(p))
		})
	}
	tr.M.Bot.InvalidateTransposes()
	tr.M.Top.InvalidateTransposes()

	switch tr.Prec {
	case BF16Split, BF16Split8LSB:
		for _, t := range tr.M.Tables {
			if t == nil {
				tr.embSplits = append(tr.embSplits, nil)
				continue
			}
			s := bf16.NewSplit(t.W)
			if tr.Prec == BF16Split8LSB {
				s.LoBits8()
			}
			s.WriteHiTo(t.W)
			tr.embSplits = append(tr.embSplits, s)
		}
	case FP24:
		for _, t := range tr.M.Tables {
			if t != nil {
				t.QuantizeTable(bf16.RoundFP24)
			}
		}
	}
}

// embForward computes every table's bag outputs for the batch into the
// workspace buffers.
func (tr *Trainer) embForward(mb *data.MiniBatch) [][]float32 {
	e := tr.M.Cfg.EmbDim
	out := tr.ws.EmbOut(tr.M.Cfg.Tables, mb.N*e)
	for t, tab := range tr.M.Tables {
		tab.Forward(tr.Pool, mb.Sparse[t], out[t])
	}
	return out
}

// embUpdate applies the sparse backward+update for table t. The per-lookup
// gradient rows live in the workspace, so the precision paths that
// materialize them (Split-SGD, FP24, and the unfused FP32 strategies) stay
// allocation-free.
func (tr *Trainer) embUpdate(t int, b *embedding.Batch, dOut []float32) {
	tab := tr.M.Tables[t]
	tables := tr.M.Cfg.Tables
	switch tr.Prec {
	case BF16Split, BF16Split8LSB:
		dW := tr.ws.EmbDW(t, tables, b.NumLookups()*tab.E)
		tab.Backward(tr.Pool, b, dOut, dW)
		tab.UpdateSplitRaceFree(tr.Pool, tr.embSplits[t], b, dW, tr.LR)
		if tr.Prec == BF16Split8LSB {
			tr.embSplits[t].LoBits8()
		}
	case FP24:
		dW := tr.ws.EmbDW(t, tables, b.NumLookups()*tab.E)
		tab.Backward(tr.Pool, b, dOut, dW)
		tab.UpdateQuantRaceFree(tr.Pool, b, dW, tr.LR, bf16.RoundFP24)
	default:
		if tr.FusedEmbedding {
			tab.FusedBackwardUpdate(tr.Pool, b, dOut, tr.LR)
			return
		}
		dW := tr.ws.EmbDW(t, tables, b.NumLookups()*tab.E)
		tab.Backward(tr.Pool, b, dOut, dW)
		tab.Update(tr.Pool, tr.Strategy, b, dW, tr.LR)
	}
}

// mlpStep applies the per-tensor optimizers to both MLPs' gradients. The
// explicit layer walk keeps the hot loop free of closure allocations; the
// optimizer order matches initOptimizers, which binds weights-then-bias per
// layer, bottom MLP first.
func (tr *Trainer) mlpStep() {
	i := 0
	for _, m := range [...]*mlp.MLP{tr.M.Bot, tr.M.Top} {
		for _, l := range m.Layers {
			tr.optStep(tr.mlpOpts[i], l.DW.Data)
			tr.optStep(tr.mlpOpts[i+1], l.DBias)
			i += 2
		}
	}
	tr.M.Bot.InvalidateTransposes()
	tr.M.Top.InvalidateTransposes()
}

// sgdChunk is the parameter count one worker updates at a time: large
// enough that a bias vector is not worth a parallel region.
const sgdChunk = 4096

// sgdCall is the argument block of sgdBody (persistent on the Trainer so
// the parallel sweep allocates nothing).
type sgdCall struct {
	opt  *optim.SGD
	grad []float32
	lr   float32
}

func sgdBody(arg any, tid, lo, hi int) {
	c := arg.(*sgdCall)
	c.opt.StepRange(c.grad, c.lr, lo*sgdChunk, min(hi*sgdChunk, len(c.grad)))
}

// optStep applies one tensor's optimizer: plain SGD in chunk ranges over
// the pool, the stateful mixed-precision optimizers whole.
func (tr *Trainer) optStep(o optim.Optimizer, grad []float32) {
	sgd, ok := o.(*optim.SGD)
	if !ok {
		o.Step(grad, tr.LR)
		return
	}
	tr.sgd = sgdCall{opt: sgd, grad: grad, lr: tr.LR}
	tr.Pool.ForNArg((len(grad)+sgdChunk-1)/sgdChunk, sgdBody, &tr.sgd)
	tr.sgd = sgdCall{}
}

// Step runs one training iteration and returns the minibatch loss. Phase
// timing is recorded with explicit start/stop stamps (not closures) so the
// steady-state step performs zero heap allocations.
func (tr *Trainer) Step(mb *data.MiniBatch) float64 {
	prof := tr.Prof
	var t0 time.Time
	if prof != nil {
		t0 = time.Now()
	}
	embOut := tr.embForward(mb)
	if prof != nil {
		prof.Add("embeddings", time.Since(t0))
		t0 = time.Now()
	}

	logits := tr.M.ForwardDense(tr.Pool, mb.Dense, embOut)
	if prof != nil {
		prof.Add("mlp", time.Since(t0))
		t0 = time.Now()
	}

	dz := tr.ws.Dz(mb.N)
	lossVal := loss.BCEWithLogits(logits, mb.Labels, dz)
	if prof != nil {
		prof.Add("rest", time.Since(t0))
		t0 = time.Now()
	}

	dEmb := tr.M.BackwardDense(tr.Pool, dz)
	if prof != nil {
		prof.Add("mlp", time.Since(t0))
		t0 = time.Now()
	}

	for t := range tr.M.Tables {
		tr.embUpdate(t, mb.Sparse[t], dEmb[t])
	}
	if prof != nil {
		prof.Add("embeddings", time.Since(t0))
		t0 = time.Now()
	}

	tr.mlpStep()
	if prof != nil {
		prof.Add("mlp", time.Since(t0))
	}
	return lossVal
}

// RunOpts configures Trainer.Run: the data source is part of the run
// configuration — the same shape DistConfig gives the distributed runs —
// instead of a per-entry-point parameter list.
type RunOpts struct {
	// Loader streams the batches; the caller keeps ownership (and closes
	// it). Exactly one of Loader and Dataset must be set.
	Loader data.Loader
	// Dataset is a source the run should own: Run wraps it in a
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

// Run consumes o.Iters batches from the configured source and steps the
// trainer on each — the single-socket training loop, whose prefetch
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
	ld := o.Loader
	switch {
	case ld != nil && o.Dataset != nil:
		return fmt.Errorf("core: RunOpts sets both Loader and Dataset; pick one source")
	case ld == nil && o.Dataset == nil:
		return fmt.Errorf("core: RunOpts needs a Loader or a Dataset")
	case ld == nil:
		batch := o.Batch
		if batch == 0 {
			batch = tr.M.Cfg.MB
		}
		if batch < 1 {
			return fmt.Errorf("core: batch size %d, want >= 1", batch)
		}
		owned := data.NewBatchLoader(o.Dataset, batch, o.Start)
		defer owned.Close()
		ld = owned
	}
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
	embOut := tr.embForward(mb)
	logits := tr.M.ForwardDense(tr.Pool, mb.Dense, embOut)
	out := make([]float32, mb.N)
	loss.Sigmoid(logits, out)
	return out
}

// EvalAUC computes ROC AUC over a batch.
func (tr *Trainer) EvalAUC(mb *data.MiniBatch) float64 {
	return loss.AUC(tr.Predict(mb), mb.Labels)
}
