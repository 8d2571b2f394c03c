package optim

import (
	"math"
	"math/rand"
	"slices"
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

// exact returns the stored FP32 values of a split tensor (hi|lo).
func exact(s *Stored, n int) []float32 {
	out := make([]float32, n)
	s.split.Compose(out)
	return out
}

// TestSplitSGDTracksFP32Exactly: the exact (hi|lo) trajectory equals plain
// FP32 SGD bit-for-bit, while the working weights are the BF16 view of it.
func TestSplitSGDTracksFP32Exactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	init := randSlice(rng, n)
	ref := append([]float32(nil), init...)
	work := append([]float32(nil), init...)
	s := NewStored(BF16Split, work)
	refOpt := NewSGD(ref)
	for iter := 0; iter < 100; iter++ {
		g := randSlice(rng, n)
		s.Step(work, 0, g, 0.01)
		s.Settle()
		refOpt.Step(g, 0.01)
	}
	got := exact(s, n)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("split trajectory diverged at %d: %g != %g", i, got[i], ref[i])
		}
		if work[i] != bf16.Round(got[i]) {
			// Working weights are the truncated-hi view, which differs from
			// RNE rounding; check it is the truncation instead.
			hiOnly := math.Float32frombits(math.Float32bits(got[i]) &^ 0xFFFF)
			if work[i] != hiOnly {
				t.Fatalf("working weights not the BF16 view at %d", i)
			}
		}
	}
}

// TestStoredStepsAnyPartition: Step over disjoint element ranges, in any
// order, gives the whole tensor's step bit for bit — what lets the
// embedding update step a table row by row under its row partition.
func TestStoredStepsAnyPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	init, grad := randSlice(rng, n), randSlice(rng, n)
	for _, prec := range []Precision{BF16Split, BF16Split8LSB, FP24} {
		whole, parts := append([]float32(nil), init...), append([]float32(nil), init...)
		sw, sp := NewStored(prec, whole), NewStored(prec, parts)
		sw.Step(whole, 0, grad, 0.37)
		for _, r := range [][2]int{{200, 300}, {0, 1}, {1, 200}, {7, 7}} {
			sp.Step(parts, r[0], grad[r[0]:r[1]], 0.37)
		}
		sw.Settle()
		sp.Settle()
		for i := range whole {
			if math.Float32bits(whole[i]) != math.Float32bits(parts[i]) {
				t.Fatalf("%v: w[%d]: ranges %g, whole %g", prec, i, parts[i], whole[i])
			}
		}
		if sw.split != nil && !slices.Equal(exact(sw, n), exact(sp, n)) {
			t.Fatalf("%v: stored values differ between ranges and whole", prec)
		}
	}
}

// TestSplitSGD8LSBStalls: with only 8 LSBs, updates below the kept
// mantissa never accumulate, while the full split's do — the §VII ablation.
func TestSplitSGD8LSBStalls(t *testing.T) {
	step500 := func(prec Precision) float32 {
		w := []float32{1}
		s := NewStored(prec, w)
		for i := 0; i < 500; i++ {
			s.Step(w, 0, []float32{-1e-7}, 1)
			s.Settle()
		}
		return exact(s, 1)[0]
	}
	if got := step500(BF16Split8LSB); got != 1 {
		t.Fatalf("8-LSB split should stall on tiny updates, got %g", got)
	}
	if step500(BF16Split) <= 1 {
		t.Fatal("full split must accumulate tiny updates")
	}
}

func TestQuantizedSGDLosesLowBits(t *testing.T) {
	// FP24 weights cannot accumulate updates below their mantissa
	// resolution relative to the weight magnitude.
	p := []float32{1}
	q := NewStored(FP24, p)
	for i := 0; i < 500; i++ {
		q.Step(p, 0, []float32{-1e-8}, 1)
		q.Settle()
	}
	if p[0] != 1 {
		t.Fatalf("FP24 should stall on 1e-8 updates around 1.0, got %g", p[0])
	}
	// But it does accumulate updates above resolution.
	q.Step(p, 0, []float32{-1e-3}, 1)
	if p[0] <= 1 {
		t.Fatal("FP24 must apply resolvable updates")
	}
}

// TestStoredStepIsTwoRoundings pins Step to the product rounded to float32
// before the subtraction, as embedding's TestUpdateIsTwoRoundings pins the
// FP32 row kernels: a fused multiply-add rounds once and gives different
// bits on every element here. The split arm runs that test's four elements
// and checks the stored value. Rounded to FP24 at binding, those elements
// give one FP24 result either way, so the FP24 arm has four of its own,
// FP24 weights whose two-rounding difference lands on a rounding tie.
func TestStoredStepIsTwoRoundings(t *testing.T) {
	const lr = float32(0.1)
	bitsOf := func(b ...uint32) []float32 {
		f := make([]float32, len(b))
		for i, v := range b {
			f[i] = math.Float32frombits(v)
		}
		return f
	}
	// checkTells: one rounding gives other bits than two on every element.
	checkTells := func(arm string, w, x []float32, round func(float32) float32) {
		for i := range w {
			two := round(w[i] - float32(lr*x[i]))
			one := round(float32(float64(w[i]) - float64(lr)*float64(x[i]))) // what an FMA returns
			if one == two {
				t.Fatalf("%s element %d does not tell one rounding from two", arm, i)
			}
		}
	}

	w := bitsOf(0x3a83126f, 0x3f00bcd3, 0x3dbde686, 0x3f5b44c2) // 0.001, 0.5029, 0.0927, 0.8565
	x := bitsOf(0x40400000, 0xbfde7300, 0x3f770aba, 0x3fd79a3f) // 3, -1.738, 0.965, 1.684
	want := []uint32{0xbe991688, 0x3f2d3a3a, 0xbb777520, 0x3f3025e8}
	checkTells("split", w, x, func(f float32) float32 { return f })
	s := NewStored(BF16Split, w)
	s.Step(w, 0, x, lr)
	for i, v := range exact(s, len(w)) {
		if math.Float32bits(v) != want[i] {
			t.Errorf("split: stored[%d] = %#x, two roundings give %#x", i, math.Float32bits(v), want[i])
		}
		if hi := want[i] &^ 0xFFFF; math.Float32bits(w[i]) != hi {
			t.Errorf("split: w[%d] = %#x, want the high half %#x", i, math.Float32bits(w[i]), hi)
		}
	}

	w = bitsOf(0x3d2fcf00, 0x3dbaa100, 0x3e808e00, 0x3e2a8700) // 0.0429, 0.0911, 0.2511, 0.1665
	x = bitsOf(0x3f22d8e8, 0x3fae5da8, 0x3ff91348, 0x3ff859e4) // 0.636, 1.362, 1.946, 1.940
	// w − float32(lr·x) ends in 0x80: a tie that rounds to even; one
	// rounding ends in 0x81, 0x81, 0x7f, 0x82 and rounds the other way.
	want = []uint32{0xbca97e00, 0xbd38b600, 0x3d676600, 0xbce13a00}
	checkTells("FP24", w, x, bf16.RoundFP24)
	s = NewStored(FP24, w)
	s.Step(w, 0, x, lr)
	for i, v := range w {
		if math.Float32bits(v) != want[i] {
			t.Errorf("FP24: w[%d] = %#x, two roundings give %#x", i, math.Float32bits(v), want[i])
		}
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
