package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bf16"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestSGDStep(t *testing.T) {
	p := []float32{1, 2, 3}
	NewSGD(p).Step([]float32{1, 1, 1}, 0.5)
	want := []float32{0.5, 1.5, 2.5}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p[%d]=%g want %g", i, p[i], want[i])
		}
	}
}

// TestSGDStepRangePartition: ranges applied in any order reproduce Step bit
// for bit — what lets a trainer spread one tensor's update over its pool.
func TestSGDStepRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1000
	init, grad := randSlice(rng, n), randSlice(rng, n)
	whole := append([]float32(nil), init...)
	parts := append([]float32(nil), init...)
	NewSGD(whole).Step(grad, 0.37)
	s := NewSGD(parts)
	for _, r := range [][2]int{{600, 1000}, {0, 1}, {1, 600}, {5, 5}} {
		s.StepRange(grad, 0.37, r[0], r[1])
	}
	for i := range whole {
		if math.Float32bits(whole[i]) != math.Float32bits(parts[i]) {
			t.Fatalf("p[%d]: ranges %g, Step %g", i, parts[i], whole[i])
		}
	}
}

func TestSplitSGDTracksFP32Exactly(t *testing.T) {
	// The exact (hi|lo) trajectory must equal plain FP32 SGD bit-for-bit,
	// while the working weights are the BF16 rounding of it.
	rng := rand.New(rand.NewSource(1))
	n := 64
	init := randSlice(rng, n)
	ref := append([]float32(nil), init...)
	work := append([]float32(nil), init...)
	s := NewSplitSGD(work)
	refOpt := NewSGD(ref)
	for iter := 0; iter < 100; iter++ {
		g := randSlice(rng, n)
		s.Step(g, 0.01)
		refOpt.Step(g, 0.01)
	}
	exact := make([]float32, n)
	s.Exact(exact)
	for i := range exact {
		if exact[i] != ref[i] {
			t.Fatalf("split trajectory diverged at %d: %g != %g", i, exact[i], ref[i])
		}
		if work[i] != bf16.Round(exact[i]) {
			// Working weights are the truncated-hi view, which differs from
			// RNE rounding; check it is the truncation instead.
			hiOnly := math.Float32frombits(math.Float32bits(exact[i]) &^ 0xFFFF)
			if work[i] != hiOnly {
				t.Fatalf("working weights not the BF16 view at %d", i)
			}
		}
	}
}

func TestSplitSGD8LSBStalls(t *testing.T) {
	work := []float32{1}
	s := NewSplitSGD(work)
	s.LimitLoTo8Bits = true
	for i := 0; i < 500; i++ {
		s.Step([]float32{-1e-7}, 1)
	}
	exact := make([]float32, 1)
	s.Exact(exact)
	if exact[0] != 1 {
		t.Fatalf("8-LSB split should stall on tiny updates, got %g", exact[0])
	}
	full := NewSplitSGD([]float32{1})
	for i := 0; i < 500; i++ {
		full.Step([]float32{-1e-7}, 1)
	}
	full.Exact(exact)
	if exact[0] <= 1 {
		t.Fatal("full split must accumulate tiny updates")
	}
}

func TestQuantizedSGDLosesLowBits(t *testing.T) {
	// FP24 weights cannot accumulate updates below their mantissa
	// resolution relative to the weight magnitude.
	p := []float32{1}
	q := NewQuantizedSGD(p, bf16.RoundFP24, "FP24")
	for i := 0; i < 500; i++ {
		q.Step([]float32{-1e-8}, 1)
	}
	if p[0] != 1 {
		t.Fatalf("FP24 should stall on 1e-8 updates around 1.0, got %g", p[0])
	}
	// But it does accumulate updates above resolution.
	q.Step([]float32{-1e-3}, 1)
	if p[0] <= 1 {
		t.Fatal("FP24 must apply resolvable updates")
	}
}

func TestStateBytes(t *testing.T) {
	p := randSlice(rand.New(rand.NewSource(2)), 100)
	if NewSGD(append([]float32(nil), p...)).StateBytes() != 0 {
		t.Fatal("SGD state should be 0")
	}
	if NewSplitSGD(append([]float32(nil), p...)).StateBytes() != 200 {
		t.Fatal("SplitSGD state should be 2B/weight")
	}
}

func TestNames(t *testing.T) {
	p := []float32{1}
	s := NewSplitSGD(append([]float32(nil), p...))
	if s.Name() != "BF16 SplitSGD" {
		t.Fatal("name")
	}
	s.LimitLoTo8Bits = true
	if s.Name() != "BF16 SplitSGD (8 LSB)" {
		t.Fatal("8lsb name")
	}
	if NewQuantizedSGD(append([]float32(nil), p...), bf16.RoundFP24, "FP24 (1-8-15)").Name() != "FP24 (1-8-15)" {
		t.Fatal("quantized name")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSGD([]float32{1, 2}).Step([]float32{1}, 0.1)
}
