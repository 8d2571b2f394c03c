package bf16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripExactForBF16Values(t *testing.T) {
	// Values already representable in BF16 must survive unchanged.
	for _, f := range []float32{0, 1, -1, 0.5, 2, 65536, -0.25, 1.5} {
		if Round(f) != f {
			t.Errorf("Round(%g)=%g, should be exact", f, Round(f))
		}
	}
	// BF16 keeps FP32's range, the paper's argument for it over FP16.
	if math.IsInf(float64(Round(1e6)), 0) {
		t.Error("BF16 must represent 1e6 without overflow")
	}
}

func TestFromFloat32RNE(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between BF16 neighbours 1.0 (mantissa
	// ...0000000) and 1+2^-7 (...0000001); RNE must pick the even one (1.0).
	halfway := float32(1) + float32(math.Pow(2, -8))
	if got := Round(halfway); got != 1.0 {
		t.Errorf("RNE halfway: Round(1+2^-8)=%g want 1", got)
	}
	// 1 + 3·2^-8 is halfway between 1+2^-7 and 1+2^-6; even neighbour is 1+2^-6.
	halfway2 := float32(1) + 3*float32(math.Pow(2, -8))
	want := float32(1) + float32(math.Pow(2, -6))
	if got := Round(halfway2); got != want {
		t.Errorf("RNE halfway2: got %g want %g", got, want)
	}
}

func TestRoundErrorBound(t *testing.T) {
	prop := func(f float32) bool {
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return true
		}
		r := Round(f)
		if f == 0 {
			return r == 0
		}
		if math.IsInf(float64(r), 0) {
			// RNE may round the largest half-ulp of float32 up to +Inf —
			// only legitimate within half a BF16 ulp of the max.
			return math.Abs(float64(f)) > 3.38e38
		}
		// Relative error bounded by 2^-8 for normal numbers.
		rel := math.Abs(float64(r-f)) / math.Abs(float64(f))
		return rel <= math.Pow(2, -8)+1e-12 || math.Abs(float64(f)) < 1e-37
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNaNPreserved(t *testing.T) {
	nan := float32(math.NaN())
	if r := ToFloat32(FromFloat32(nan)); !math.IsNaN(float64(r)) {
		t.Fatal("NaN not preserved through BF16")
	}
}

func TestDotMatchesRoundedFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, 64)
	b := make([]float32, 64)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
		b[i] = rng.Float32()*2 - 1
	}
	got := Dot(a, b)
	var want float32
	for i := range a {
		want += Round(a[i]) * Round(b[i])
	}
	if got != want {
		t.Fatalf("Dot=%g want %g", got, want)
	}
}

func TestFP24RoundExactness(t *testing.T) {
	// FP24 keeps 15 mantissa bits: 1 + 2^-15 must be representable,
	// 1 + 2^-16 must round away.
	v := float32(1) + float32(math.Pow(2, -15))
	if RoundFP24(v) != v {
		t.Fatal("1+2^-15 should be exact in FP24")
	}
	w := float32(1) + float32(math.Pow(2, -17))
	if RoundFP24(w) == w {
		t.Fatal("1+2^-17 should not be exact in FP24")
	}
	if RoundFP24(w) != 1.0 {
		t.Fatalf("1+2^-17 should round to 1, got %g", RoundFP24(w))
	}
}

func TestFP24FinerThanBF16(t *testing.T) {
	// FP24 must preserve more precision than BF16 on random values.
	rng := rand.New(rand.NewSource(2))
	var bfErr, fp24Err float64
	for i := 0; i < 1000; i++ {
		f := rng.Float32()*2 - 1
		bfErr += math.Abs(float64(Round(f) - f))
		fp24Err += math.Abs(float64(RoundFP24(f) - f))
	}
	if fp24Err >= bfErr/10 {
		t.Fatalf("FP24 error %g not ≪ BF16 error %g", fp24Err, bfErr)
	}
}

func TestSplitComposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := make([]float32, 256)
	for i := range w {
		w[i] = rng.Float32()*100 - 50
	}
	s := NewSplit(w)
	out := make([]float32, 256)
	s.Compose(out)
	for i := range w {
		if out[i] != w[i] {
			t.Fatalf("split compose not exact at %d: %g != %g", i, out[i], w[i])
		}
	}
}

func TestSplitHiIsBF16Truncation(t *testing.T) {
	// Hi is the truncated (not rounded) upper half — together with Lo it is
	// exact, and HiFloat equals the FP32 with low bits cleared.
	w := []float32{1.23456789, -9.87654321e-3}
	s := NewSplit(w)
	for i := range w {
		bits := math.Float32bits(w[i]) &^ 0xFFFF
		if s.HiFloat(i) != math.Float32frombits(bits) {
			t.Fatalf("HiFloat(%d) wrong", i)
		}
	}
}
