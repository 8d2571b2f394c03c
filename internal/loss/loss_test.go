package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBCEKnownValues(t *testing.T) {
	// z=0 ⇒ σ=0.5 ⇒ loss = ln2 regardless of label.
	l := BCEWithLogits([]float32{0, 0}, []float32{0, 1}, nil)
	if math.Abs(l-math.Ln2) > 1e-6 {
		t.Fatalf("loss=%g want ln2", l)
	}
	// Strong correct logit ⇒ near-zero loss; strong wrong ⇒ large.
	if l := BCEWithLogits([]float32{20}, []float32{1}, nil); l > 1e-6 {
		t.Fatalf("confident correct should be ~0, got %g", l)
	}
	if l := BCEWithLogits([]float32{20}, []float32{0}, nil); l < 19 {
		t.Fatalf("confident wrong should be ~20, got %g", l)
	}
}

func TestBCEGradNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 16
	z := make([]float32, n)
	y := make([]float32, n)
	for i := range z {
		z[i] = rng.Float32()*4 - 2
		if rng.Float32() > 0.5 {
			y[i] = 1
		}
	}
	dz := make([]float32, n)
	BCEWithLogits(z, y, dz)
	const eps = 1e-3
	for trial := 0; trial < 8; trial++ {
		i := rng.Intn(n)
		orig := z[i]
		z[i] = orig + eps
		lp := BCEWithLogits(z, y, nil)
		z[i] = orig - eps
		lm := BCEWithLogits(z, y, nil)
		z[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dz[i])) > 1e-4 {
			t.Errorf("dz[%d]: numeric %g analytic %g", i, num, dz[i])
		}
	}
}

func TestBCEOverflowSafe(t *testing.T) {
	l := BCEWithLogits([]float32{1000, -1000}, []float32{1, 0}, nil)
	if math.IsNaN(l) || math.IsInf(l, 0) || l > 1e-6 {
		t.Fatalf("extreme logits must be stable and ~0 loss, got %g", l)
	}
}

func TestAUCPerfectAndWorst(t *testing.T) {
	scores := []float32{0.9, 0.8, 0.2, 0.1}
	labels := []float32{1, 1, 0, 0}
	if a := AUC(scores, labels); a != 1 {
		t.Fatalf("perfect ranking AUC=%g want 1", a)
	}
	labels = []float32{0, 0, 1, 1}
	if a := AUC(scores, labels); a != 0 {
		t.Fatalf("inverted ranking AUC=%g want 0", a)
	}
}

func TestAUCTiesAndDegenerate(t *testing.T) {
	// All scores equal ⇒ AUC 0.5 by average-rank convention.
	if a := AUC([]float32{1, 1, 1, 1}, []float32{1, 0, 1, 0}); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("tied scores AUC=%g want 0.5", a)
	}
	// Single class ⇒ 0.5 sentinel.
	if a := AUC([]float32{0.1, 0.9}, []float32{1, 1}); a != 0.5 {
		t.Fatalf("single class AUC=%g want 0.5", a)
	}
	// A NaN score, both classes present ⇒ NaN (the tie loop never
	// advanced past a NaN, which equals nothing, itself included).
	nan := float32(math.NaN())
	if a := AUC([]float32{0.3, nan, 0.7, 0.1}, []float32{1, 0, 1, 0}); !math.IsNaN(a) {
		t.Fatalf("NaN score AUC=%g want NaN", a)
	}
}

func TestAUCRandomNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20000
	scores := make([]float32, n)
	labels := make([]float32, n)
	for i := range scores {
		scores[i] = rng.Float32()
		if rng.Float32() > 0.5 {
			labels[i] = 1
		}
	}
	if a := AUC(scores, labels); math.Abs(a-0.5) > 0.02 {
		t.Fatalf("random scores AUC=%g want ≈0.5", a)
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		scores := make([]float32, n)
		labels := make([]float32, n)
		scaled := make([]float32, n)
		for i := range scores {
			scores[i] = rng.Float32()*10 - 5
			scaled[i] = scores[i]*3 + 7 // strictly monotone transform
			if rng.Float32() > 0.6 {
				labels[i] = 1
			}
		}
		return math.Abs(AUC(scores, labels)-AUC(scaled, labels)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	out := make([]float32, 3)
	Sigmoid([]float32{0, 100, -100}, out)
	if out[0] != 0.5 || out[1] < 0.999 || out[2] > 0.001 {
		t.Fatalf("sigmoid values wrong: %v", out)
	}
}
