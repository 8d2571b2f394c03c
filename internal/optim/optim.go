// Package optim implements the optimizers compared in §VII: plain FP32 SGD,
// Split-SGD-BF16 (hi/lo split storage, FP32-accurate update, no master
// weights) and quantized SGD (weights kept in a reduced precision such as
// FP24, losing low bits every step).
//
// Optimizers are per-tensor: a model enumerates its parameter tensors (e.g.
// mlp.MLP.VisitParams) and binds one optimizer instance to each. Step takes
// the gradient tensor for the bound parameters.
package optim

import "repro/internal/bf16"

// Optimizer updates one bound parameter tensor from a gradient tensor.
type Optimizer interface {
	// Step applies one update with learning rate lr.
	Step(grad []float32, lr float32)
	// Name identifies the optimizer variant in experiment output.
	Name() string
	// StateBytes reports optimizer-owned state (excluding the model's own
	// working weights) — the capacity-overhead comparison of §VII.
	StateBytes() int
}

// SGD is the reference FP32 stochastic gradient descent.
type SGD struct {
	Params []float32
}

// NewSGD binds plain SGD to params.
func NewSGD(params []float32) *SGD { return &SGD{Params: params} }

// Step implements Optimizer.
func (s *SGD) Step(grad []float32, lr float32) { s.StepRange(grad, lr, 0, len(s.Params)) }

// StepRange applies the update to parameters [lo, hi) only. The update is
// elementwise, so disjoint ranges may run concurrently and any partition
// gives Step's result bit for bit. Here and below the product is converted
// explicitly: that forbids fusing it into the subtraction, so an update is
// two roundings on every architecture.
func (s *SGD) StepRange(grad []float32, lr float32, lo, hi int) {
	if len(grad) != len(s.Params) {
		panic("optim: SGD grad length mismatch")
	}
	p, g := s.Params[lo:hi], grad[lo:hi]
	for i := range p {
		p[i] -= float32(lr * g[i])
	}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "FP32 SGD" }

// StateBytes implements Optimizer: plain SGD has no extra state.
func (s *SGD) StateBytes() int { return 0 }

// SplitSGD is Split-SGD-BF16 (§VII): the model's working weights hold the
// BF16 (hi) view used by forward/backward, while the optimizer keeps the
// 16 LSBs. The update recomposes exact FP32, applies SGD, re-splits, and
// refreshes the working weights. Total storage equals FP32 training (16+16
// bits), versus 48 bits for FP16+master-weights.
type SplitSGD struct {
	Params []float32 // model working weights, always the BF16 view
	split  *bf16.Split
	// LimitLoTo8Bits enables the §VII ablation that keeps only 8 extra LSBs.
	LimitLoTo8Bits bool
}

// NewSplitSGD binds Split-SGD to params, initializing the split state from
// the current FP32 values and immediately rounding the working weights to
// their BF16 view.
func NewSplitSGD(params []float32) *SplitSGD {
	s := &SplitSGD{Params: params, split: bf16.NewSplit(params)}
	s.split.WriteHiTo(params)
	return s
}

// Step implements Optimizer.
func (s *SplitSGD) Step(grad []float32, lr float32) {
	if len(grad) != len(s.Params) {
		panic("optim: SplitSGD grad length mismatch")
	}
	s.split.SGDStep(grad, lr)
	if s.LimitLoTo8Bits {
		s.split.LoBits8()
	}
	s.split.WriteHiTo(s.Params)
}

// Name implements Optimizer.
func (s *SplitSGD) Name() string {
	if s.LimitLoTo8Bits {
		return "BF16 SplitSGD (8 LSB)"
	}
	return "BF16 SplitSGD"
}

// StateBytes implements Optimizer: the Lo tensor, 2 bytes per weight.
func (s *SplitSGD) StateBytes() int { return 2 * len(s.Params) }

// Exact materializes the exact FP32 weights (hi|lo) into dst, used by tests
// and checkpointing.
func (s *SplitSGD) Exact(dst []float32) { s.split.Compose(dst) }

// QuantizedSGD keeps the weights themselves in a reduced precision: the
// update runs in FP32 on the quantized weights and the result is immediately
// re-quantized, so low-order bits of every update are lost. With
// Quant=bf16.RoundFP24 this is the FP24 (1-8-15) curve of Fig. 16.
type QuantizedSGD struct {
	Params  []float32
	Quant   func(float32) float32
	Variant string
}

// NewQuantizedSGD binds quantized SGD to params, quantizing them in place.
func NewQuantizedSGD(params []float32, quant func(float32) float32, name string) *QuantizedSGD {
	for i := range params {
		params[i] = quant(params[i])
	}
	return &QuantizedSGD{Params: params, Quant: quant, Variant: name}
}

// Step implements Optimizer.
func (q *QuantizedSGD) Step(grad []float32, lr float32) {
	if len(grad) != len(q.Params) {
		panic("optim: QuantizedSGD grad length mismatch")
	}
	for i := range q.Params {
		q.Params[i] = q.Quant(q.Params[i] - float32(lr*grad[i]))
	}
}

// Name implements Optimizer.
func (q *QuantizedSGD) Name() string { return q.Variant }

// StateBytes implements Optimizer.
func (q *QuantizedSGD) StateBytes() int { return 0 }
