package mlp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/tensor"
)

func naiveLayerForward(x, w *tensor.Dense, bias []float32, act Activation) *tensor.Dense {
	y := tensor.NewDense(x.Rows, w.Rows)
	for n := 0; n < x.Rows; n++ {
		for k := 0; k < w.Rows; k++ {
			var acc float64
			for c := 0; c < x.Cols; c++ {
				acc += float64(x.At(n, c)) * float64(w.At(k, c))
			}
			acc += float64(bias[k])
			switch act {
			case ReLU:
				if acc < 0 {
					acc = 0
				}
			case Sigmoid:
				acc = 1 / (1 + math.Exp(-acc))
			}
			y.Set(n, k, float32(acc))
		}
	}
	return y
}

func TestBlockPick(t *testing.T) {
	cases := []struct{ dim, cap, want int }{
		{1024, 64, 64}, {13, 64, 13}, {1, 64, 1}, {48, 64, 48}, {100, 64, 50},
		{1008, 64, 63}, {7, 4, 1},
	}
	for _, c := range cases {
		if got := BlockPick(c.dim, c.cap); got != c.want {
			t.Errorf("BlockPick(%d,%d)=%d want %d", c.dim, c.cap, got, c.want)
		}
	}
}

func TestLayerForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := par.NewPool(4)
	for _, act := range []Activation{None, ReLU, Sigmoid} {
		l := NewLayer(32, 48, 8, act, rng)
		xD := tensor.NewDense(16, 32)
		xD.Randomize(rng, 1)
		x := tensor.PackActs(xD, 8, l.BC)
		y := l.Forward(pool, x).Unpack()
		want := naiveLayerForward(xD, l.W.Unpack(), l.Bias, act)
		if !tensor.AllClose(y, want, 1e-4, 1e-5) {
			t.Fatalf("act=%d forward mismatch (max %g)", act, tensor.MaxAbsDiff(y, want))
		}
	}
}

func TestMLPForwardStack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := par.NewPool(4)
	m := New([]int{16, 32, 8}, 4, ReLU, None, rng)
	xD := tensor.NewDense(8, 16)
	xD.Randomize(rng, 1)
	y := m.ForwardDense(pool, xD).Unpack()

	h := naiveLayerForward(xD, m.Layers[0].W.Unpack(), m.Layers[0].Bias, ReLU)
	want := naiveLayerForward(h, m.Layers[1].W.Unpack(), m.Layers[1].Bias, None)
	if !tensor.AllClose(y, want, 1e-4, 1e-5) {
		t.Fatalf("stack mismatch (max %g)", tensor.MaxAbsDiff(y, want))
	}
}

// TestGradientsNumerically verifies backward against central finite
// differences of the scalar loss L = Σ y²/2, for which dL/dy = y.
func TestGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := par.NewPool(2)
	m := New([]int{6, 10, 4}, 2, ReLU, None, rng)
	xD := tensor.NewDense(4, 6)
	xD.Randomize(rng, 1)

	loss := func() float64 {
		y := m.ForwardDense(pool, xD).Unpack()
		var s float64
		for _, v := range y.Data {
			s += float64(v) * float64(v) / 2
		}
		return s
	}

	// Analytic gradients.
	y := m.ForwardDense(pool, xD)
	dy := y.Clone()
	dx := m.Backward(pool, dy, true)

	const eps = 1e-3
	checkTensor := func(name string, params []float32, grads []float32, count int) {
		for trial := 0; trial < count; trial++ {
			i := rng.Intn(len(params))
			orig := params[i]
			params[i] = orig + eps
			m.InvalidateTransposes()
			lp := loss()
			params[i] = orig - eps
			m.InvalidateTransposes()
			lm := loss()
			params[i] = orig
			m.InvalidateTransposes()
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(grads[i])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %g analytic %g", name, i, numeric, analytic)
			}
		}
	}
	for li, l := range m.Layers {
		checkTensor("W", l.W.Data, l.DW.Data, 8)
		checkTensor("b", l.Bias, l.DBias, 4)
		_ = li
	}

	// Input gradient via finite differences too.
	dxD := dx.Unpack()
	for trial := 0; trial < 8; trial++ {
		i := rng.Intn(len(xD.Data))
		orig := xD.Data[i]
		xD.Data[i] = orig + eps
		lp := loss()
		xD.Data[i] = orig - eps
		lm := loss()
		xD.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dxD.Data[i])
		if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
			t.Errorf("dX[%d]: numeric %g analytic %g", i, numeric, analytic)
		}
	}
}

func TestStepReducesQuadraticLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := par.NewPool(2)
	m := New([]int{8, 16, 2}, 4, ReLU, None, rng)
	xD := tensor.NewDense(8, 8)
	xD.Randomize(rng, 1)

	lossOf := func(y *tensor.Acts) float64 {
		var s float64
		for _, v := range y.Data {
			s += float64(v) * float64(v) / 2
		}
		return s
	}
	y0 := m.ForwardDense(pool, xD)
	l0 := lossOf(y0)
	for iter := 0; iter < 20; iter++ {
		y := m.ForwardDense(pool, xD)
		m.Backward(pool, y.Clone(), false)
		m.Step(0.01)
	}
	l1 := lossOf(m.ForwardDense(pool, xD))
	if l1 >= l0 {
		t.Fatalf("SGD failed to reduce loss: %g -> %g", l0, l1)
	}
}

func TestStepInvalidatesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := par.NewPool(1)
	l := NewLayer(8, 8, 4, None, rng)
	x := tensor.NewActs(4, 8, 4, l.BC)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	y := l.Forward(pool, x)
	_ = l.Backward(pool, y.Clone(), true) // populates transpose cache
	wBefore := l.W.At(0, 0)
	l.Step(1) // mutates W, must invalidate cache
	if l.W.At(0, 0) == wBefore && l.DW.At(0, 0) != 0 {
		t.Fatal("Step did not update weights")
	}
	// After the step, a fresh backward must use the *new* weights: compare
	// dX against naive computation with current W.
	y2 := l.Forward(pool, x)
	dx := l.Backward(pool, y2.Clone(), true)
	dzD := y2.Unpack() // act=None so dz = dy = y2
	want := tensor.NewDense(4, 8)
	for n := 0; n < 4; n++ {
		for c := 0; c < 8; c++ {
			var acc float32
			for k := 0; k < 8; k++ {
				acc += dzD.At(n, k) * l.W.At(k, c)
			}
			want.Set(n, c, acc)
		}
	}
	if !tensor.AllClose(dx.Unpack(), want, 1e-4, 1e-5) {
		t.Fatal("backward used stale transposed weights after Step")
	}
}

func TestVisitParamsGradsAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := New([]int{4, 6, 2}, 2, ReLU, None, rng)
	var pNames, gNames []string
	var pLens, gLens []int
	m.VisitParams(func(n string, p []float32) { pNames = append(pNames, n); pLens = append(pLens, len(p)) })
	m.VisitGrads(func(n string, g []float32) { gNames = append(gNames, n); gLens = append(gLens, len(g)) })
	if len(pNames) != 4 || len(gNames) != 4 {
		t.Fatalf("expected 4 tensors, got %d/%d", len(pNames), len(gNames))
	}
	for i := range pNames {
		if pNames[i] != gNames[i] || pLens[i] != gLens[i] {
			t.Fatalf("params/grads misaligned at %d: %s/%d vs %s/%d", i, pNames[i], pLens[i], gNames[i], gLens[i])
		}
	}
	wantBytes := 4 * (4*6 + 6 + 6*2 + 2)
	if m.ParamBytes() != wantBytes {
		t.Fatalf("ParamBytes=%d want %d", m.ParamBytes(), wantBytes)
	}
}

func TestFlopsPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New([]int{10, 20, 5}, 2, ReLU, None, rng)
	want := 2.0 * (10*20 + 20*5)
	if m.FlopsPerSample() != want {
		t.Fatalf("FlopsPerSample=%g want %g", m.FlopsPerSample(), want)
	}
}

func TestMLPerfShapes(t *testing.T) {
	// The MLPerf config has a 13-wide input and a 1-wide output; ensure the
	// degenerate block sizes work end to end.
	rng := rand.New(rand.NewSource(8))
	pool := par.NewPool(4)
	bot := New([]int{13, 512, 256, 128}, 16, ReLU, ReLU, rng)
	top := New([]int{128, 512, 512, 256, 1}, 16, ReLU, None, rng)
	x := tensor.NewDense(32, 13)
	x.Randomize(rng, 1)
	h := bot.ForwardDense(pool, x)
	if h.C != 128 {
		t.Fatalf("bottom output C=%d", h.C)
	}
	hD := h.Unpack()
	y := top.ForwardDense(pool, hD)
	if y.C != 1 || y.N != 32 {
		t.Fatalf("top output %dx%d", y.N, y.C)
	}
	top.Backward(pool, y.Clone(), true)
	bot.Backward(pool, h.Clone(), false)
	top.Step(0.1)
	bot.Step(0.1)
}

// TestBackwardVisitMatchesBackward pins the layer-stepped refactor: driving
// the stack through BackwardVisit (the distributed bucketed path) must
// produce bit-identical gradients and dX to the plain Backward the fused
// single-socket path uses, and the visitor must fire once per layer in
// backward execution order (last layer first), after that layer's DW is
// written.
func TestBackwardVisitMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := par.NewPool(4)
	defer pool.Close()
	build := func() *MLP { return New([]int{16, 32, 24, 8}, 4, ReLU, None, rand.New(rand.NewSource(7))) }
	ref, m := build(), build()

	xD := tensor.NewDense(8, 16)
	xD.Randomize(rng, 1)
	dyD := tensor.NewDense(8, 8)
	dyD.Randomize(rng, 1)

	refOut := ref.ForwardDense(pool, xD).Clone()
	refDX := ref.Backward(pool, tensor.PackActs(dyD, 4, refOut.BC), true).Clone()

	out := m.ForwardDense(pool, xD)
	var order []int
	dx := m.BackwardVisit(pool, tensor.PackActs(dyD, 4, out.BC), true, func(i int) {
		order = append(order, i)
		// The visited layer's gradients must be final when the callback
		// fires: compare against the reference run's same layer.
		for _, g := range [][]float32{m.Layers[i].DW.Data, m.Layers[i].DBias} {
			for j := range g {
				_ = g[j] // touch: slice must be fully materialized
			}
		}
		refG, gotG := ref.Layers[i].DW.Data, m.Layers[i].DW.Data
		for j := range gotG {
			if gotG[j] != refG[j] {
				t.Fatalf("layer %d DW[%d] not final at visit: %g vs %g", i, j, gotG[j], refG[j])
			}
		}
	})
	if want := []int{2, 1, 0}; len(order) != len(want) {
		t.Fatalf("visited %v, want %v", order, want)
	} else {
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("visit order %v, want %v", order, want)
			}
		}
	}
	for i := range dx.Data {
		if dx.Data[i] != refDX.Data[i] {
			t.Fatalf("dX[%d] = %g, want %g", i, dx.Data[i], refDX.Data[i])
		}
	}
	for li := range m.Layers {
		for j := range m.Layers[li].DBias {
			if m.Layers[li].DBias[j] != ref.Layers[li].DBias[j] {
				t.Fatalf("layer %d DBias[%d] diverged", li, j)
			}
		}
	}
}

// TestLayerGradHelpers checks the per-layer gradient accounting the bucket
// plans rely on: LayerGradLen sums to the VisitGrads total in order, and
// VisitLayerGrads emits exactly layer i's slice of that order.
func TestLayerGradHelpers(t *testing.T) {
	m := New([]int{16, 32, 8}, 4, ReLU, None, rand.New(rand.NewSource(3)))
	var total int
	m.VisitGrads(func(_ string, g []float32) { total += len(g) })
	var sum int
	for i := range m.Layers {
		sum += m.LayerGradLen(i)
		var ln int
		m.VisitLayerGrads(i, func(_ string, g []float32) { ln += len(g) })
		if ln != m.LayerGradLen(i) {
			t.Fatalf("layer %d: VisitLayerGrads len %d != LayerGradLen %d", i, ln, m.LayerGradLen(i))
		}
	}
	if sum != total {
		t.Fatalf("per-layer grad lengths sum to %d, VisitGrads total %d", sum, total)
	}
}

// TestStepLayersMatchesStep checks that stepping the stack bucket by bucket
// equals one whole-stack Step.
func TestStepLayersMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := par.NewPool(2)
	defer pool.Close()
	build := func() *MLP { return New([]int{8, 16, 16, 4}, 4, ReLU, None, rand.New(rand.NewSource(9))) }
	a, b := build(), build()
	xD := tensor.NewDense(8, 8)
	xD.Randomize(rng, 1)
	dyD := tensor.NewDense(8, 4)
	dyD.Randomize(rng, 1)
	for _, m := range []*MLP{a, b} {
		out := m.ForwardDense(pool, xD)
		m.Backward(pool, tensor.PackActs(dyD, 4, out.BC), false)
	}
	a.Step(0.25)
	b.StepLayers(2, 2, 0.25)
	b.StepLayers(0, 1, 0.25)
	for li := range a.Layers {
		for j := range a.Layers[li].W.Data {
			if a.Layers[li].W.Data[j] != b.Layers[li].W.Data[j] {
				t.Fatalf("layer %d W[%d]: Step vs StepLayers diverged", li, j)
			}
		}
	}
}

// TestFusedForwardEqualsGemmThenSweep: applying bias + activation to each
// output block in the worker that produced it gives, bit for bit, what a
// separate sweep over the finished GEMM output gives — for every
// activation, at training (bn = 8) and serving (bn = 1) blockings, with a
// masked column tail (K = 100 → bk = 50).
func TestFusedForwardEqualsGemmThenSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := par.NewPool(2)
	for _, act := range []Activation{None, ReLU, Sigmoid} {
		for _, bn := range []int{8, 1} {
			l := NewLayer(64, 100, bn, act, rng)
			xD := tensor.NewDense(24, 64)
			xD.Randomize(rng, 1)
			x := tensor.PackActs(xD, bn, l.BC)
			got := l.Forward(pool, x)

			want := tensor.NewActs(24, 100, bn, l.BK)
			gemm.Forward(pool, l.W, x, want)
			for kb := 0; kb < want.Cb; kb++ {
				for nb := 0; nb < want.Nb; nb++ {
					(*biasAct)(l).Apply(kb, want.Block(kb, nb), bn)
				}
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("act=%d bn=%d: fused %g != swept %g at %d", act, bn, got.Data[i], want.Data[i], i)
				}
			}
		}
	}
}

// TestBackwardSweepMatchesThreePasses: the single dz sweep (copy, act',
// bias gradient) equals the three separate passes it replaced, bit for bit,
// and leaves the caller's dy untouched.
func TestBackwardSweepMatchesThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pool := par.NewPool(2)
	for _, act := range []Activation{None, ReLU, Sigmoid} {
		l := NewLayer(32, 100, 8, act, rng)
		xD := tensor.NewDense(24, 32)
		xD.Randomize(rng, 1)
		y := l.Forward(pool, tensor.PackActs(xD, 8, l.BC))
		dyD := tensor.NewDense(24, 100)
		dyD.Randomize(rng, 1)
		dy := tensor.PackActs(dyD, 8, l.BK)
		keep := dy.Clone()
		l.Backward(pool, dy, false)

		wantDz := dy.Clone()
		for i, s := range y.Data {
			switch act {
			case ReLU:
				if s <= 0 {
					wantDz.Data[i] = 0
				}
			case Sigmoid:
				wantDz.Data[i] *= s * (1 - s)
			}
		}
		wantDB := make([]float32, l.K)
		for n := 0; n < 24; n++ {
			for k := range wantDB {
				wantDB[k] += wantDz.At(n, k)
			}
		}
		for i := range wantDz.Data {
			if math.Float32bits(l.dz.Data[i]) != math.Float32bits(wantDz.Data[i]) {
				t.Fatalf("act=%d: dz[%d] = %g want %g", act, i, l.dz.Data[i], wantDz.Data[i])
			}
			if dy.Data[i] != keep.Data[i] {
				t.Fatalf("act=%d: Backward modified the caller's dy", act)
			}
		}
		for k := range wantDB {
			if math.Float32bits(l.DBias[k]) != math.Float32bits(wantDB[k]) {
				t.Fatalf("act=%d: DBias[%d] = %g want %g", act, k, l.DBias[k], wantDB[k])
			}
		}
	}
}
