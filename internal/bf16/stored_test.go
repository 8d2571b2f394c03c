package bf16_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/optim"
)

// The split exists for the update it carries. These tests run it through
// optim.Stored, the one reduced-precision update rule, and read what the
// forward and backward passes read: the working view, the split's high
// halves. optim's own tests check the stored hi|lo values.

// hiOf truncates f to its high 16 bits, the BF16 view of a split value.
func hiOf(f float32) float32 { return math.Float32frombits(math.Float32bits(f) &^ 0xFFFF) }

// TestSplitSGDStepExactFP32: after every Split-SGD step the working view is
// the high half of plain FP32 SGD's weights, bit for bit — a step that lost
// low bits would move some high half off the FP32 trajectory.
func TestSplitSGDStepExactFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	w := make([]float32, n)
	ref := make([]float32, n)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
		ref[i] = w[i]
	}
	s := optim.NewStored(optim.BF16Split, w)
	g := make([]float32, n)
	for iter := 0; iter < 50; iter++ {
		for i := range g {
			g[i] = rng.Float32()*0.2 - 0.1
		}
		s.Step(w, 0, g, 0.01)
		s.Settle()
		for i := range ref {
			ref[i] -= float32(0.01 * g[i])
			if w[i] != hiOf(ref[i]) {
				t.Fatalf("step %d: Split-SGD's view left FP32 SGD at %d: %g, want %g", iter, i, w[i], hiOf(ref[i]))
			}
		}
	}
}

// TestSplitLoBits8LosesPrecision: with only 8 LSBs kept, an update below
// their resolution never accumulates, so the view stays put, while the full
// split's updates add up until they reach the high half — the §VII ablation.
func TestSplitLoBits8LosesPrecision(t *testing.T) {
	g := []float32{-1e-5} // w += 1e-5 per step with lr = 1; 8 LSBs resolve 2^-15 ≈ 3e-5 at 1.0
	run := func(prec optim.Precision) float32 {
		w := []float32{1.0}
		s := optim.NewStored(prec, w)
		for i := 0; i < 1000; i++ {
			s.Step(w, 0, g, 1)
			s.Settle()
		}
		return w[0]
	}
	if run(optim.BF16Split) <= 1.0 {
		t.Fatal("full split failed to accumulate small updates")
	}
	if got := run(optim.BF16Split8LSB); got != 1.0 {
		t.Fatalf("8-LSB split unexpectedly accumulated: %g", got)
	}
}
