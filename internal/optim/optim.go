// Package optim implements the updates compared in §VII: plain FP32 SGD and
// the reduced-precision storage of Fig. 16 — Split-SGD-BF16 (hi/lo split
// storage, FP32-accurate update, no master weights), its 8-LSB ablation, and
// FP24 weights that lose low bits every step.
//
// One rule updates every reduced-precision tensor: Stored.Step, called per
// MLP parameter tensor and per embedding-table row alike.
package optim

import (
	"fmt"

	"repro/internal/bf16"
	"repro/internal/sweep"
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

// SGD is the reference FP32 stochastic gradient descent.
type SGD struct {
	Params []float32
}

// NewSGD binds plain SGD to params.
func NewSGD(params []float32) *SGD { return &SGD{Params: params} }

// Step applies one update with learning rate lr to every parameter.
func (s *SGD) Step(grad []float32, lr float32) { s.StepRange(grad, lr, 0, len(s.Params)) }

// StepRange applies the update to parameters [lo, hi) only, through
// sweep.SGD: p − round(lr·g), two roundings on every architecture and
// kernel. The update is elementwise, so disjoint ranges may run
// concurrently and any partition gives Step's result bit for bit.
func (s *SGD) StepRange(grad []float32, lr float32, lo, hi int) {
	if len(grad) != len(s.Params) {
		panic("optim: SGD grad length mismatch")
	}
	sweep.SGD(s.Params[lo:hi], grad[lo:hi], lr)
}

// Stored is one tensor's reduced-precision storage (§VII), kept beside the
// caller's FP32 working view w — the values forward and backward read.
// Under the BF16 splits it holds every weight exactly as its BF16 high half
// and its 16 low bits (bf16.Split), and w holds the high half: FP32 accuracy
// at FP32's footprint, with no master copy. Under FP24 the weights are the
// storage: Stored keeps no state, and w holds their 1-8-15 rounding.
type Stored struct {
	split *bf16.Split // the BF16 splits only
	lo8   bool        // BF16Split8LSB: Settle keeps 8 of the 16 low bits
}

// NewStored binds prec's storage to w and rounds w to its working view in
// place. FP32 needs none: NewStored returns nil, and the caller updates w
// with SGD.
func NewStored(prec Precision, w []float32) *Stored {
	switch prec {
	case BF16Split, BF16Split8LSB:
		s := &Stored{split: bf16.NewSplit(w), lo8: prec == BF16Split8LSB}
		s.split.WriteHiTo(w)
		return s
	case FP24:
		for i := range w {
			w[i] = bf16.RoundFP24(w[i])
		}
		return &Stored{}
	}
	return nil
}

// Step applies w[off+i] −= lr·g[i] for every i of g in FP32 and stores the
// result: the splits recompose hi|lo, subtract, re-split and refresh w's high
// half; FP24 subtracts from w and re-rounds. The product is converted
// explicitly, so it is rounded before the subtraction — two roundings, as in
// SGD, never a fused multiply-add. Disjoint element ranges may be stepped
// concurrently.
func (s *Stored) Step(w []float32, off int, g []float32, lr float32) {
	sp := s.split
	for i, gi := range g {
		j := off + i
		v := w[j]
		if sp != nil {
			v = sp.At(j)
		}
		v -= float32(lr * gi)
		if sp == nil {
			w[j] = bf16.RoundFP24(v)
			continue
		}
		sp.SetFP32(j, v)
		w[j] = sp.HiFloat(j)
	}
}

// Settle ends a step. The 8-LSB ablation truncates every low half, touched
// or not, to its top 8 bits; the other precisions keep what Step stored.
func (s *Stored) Settle() {
	if s.lo8 {
		s.split.LoBits8()
	}
}
