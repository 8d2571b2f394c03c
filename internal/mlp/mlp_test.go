package mlp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/optim"
	"repro/internal/par"
	"repro/internal/tensor"
)

// sgdLayer is what a trainer's optimizer does to a layer: plain SGD on W and
// the bias, then the cached transpose dropped.
func sgdLayer(l *Layer, lr float32) {
	optim.NewSGD(l.W.Data).Step(l.DW.Data, lr)
	optim.NewSGD(l.Bias).Step(l.DBias, lr)
	l.InvalidateTranspose()
}

// sgdStep applies sgdLayer to every layer of m.
func sgdStep(m *MLP, lr float32) {
	for _, l := range m.Layers {
		sgdLayer(l, lr)
	}
}

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
		sgdStep(m, 0.01)
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
	sgdLayer(l, 1) // mutates W, invalidates the cache
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
	// {4, 6, 2} stores every layer at its logical width; {383, 6, 2} pads
	// its first layer to 384 columns, which the visited tensors hold.
	for _, c := range []struct {
		sizes []int
		w0    int
	}{{[]int{4, 6, 2}, 4 * 6}, {[]int{383, 6, 2}, 384 * 6}} {
		m := New(c.sizes, 2, ReLU, None, rand.New(rand.NewSource(6)))
		var pLens []int
		m.VisitParams(func(_ string, p []float32) { pLens = append(pLens, len(p)) })
		if len(pLens) != 4 {
			t.Fatalf("expected 4 tensors, got %d", len(pLens))
		}
		if pLens[0] != c.w0 {
			t.Fatalf("%v: layer0.W holds %d values, want %d", c.sizes, pLens[0], c.w0)
		}
		for i, l := range m.Layers {
			if len(l.DW.Data) != pLens[2*i] || len(l.DBias) != pLens[2*i+1] {
				t.Fatalf("%v: layer %d gradients hold %d+%d values, parameters %d+%d",
					c.sizes, i, len(l.DW.Data), len(l.DBias), pLens[2*i], pLens[2*i+1])
			}
		}
	}
}

func TestMLPerfShapes(t *testing.T) {
	// The MLPerf config has a 13-wide input, a 1-wide output and a prime
	// top-MLP input (479 = 128 + 351; 383 = 32 + 351 at the benchmark's
	// mini model); ensure the degenerate widths work end to end.
	rng := rand.New(rand.NewSource(8))
	pool := par.NewPool(4)
	bot := New([]int{13, 512, 256, 128}, 16, ReLU, ReLU, rng)
	x := tensor.NewDense(32, 13)
	x.Randomize(rng, 1)
	h := bot.ForwardDense(pool, x)
	if h.C != 128 {
		t.Fatalf("bottom output C=%d", h.C)
	}
	for _, top := range []*MLP{
		New([]int{479, 512, 512, 256, 1}, 16, ReLU, None, rng),
		New([]int{383, 128, 128, 64, 1}, 16, ReLU, None, rng),
	} {
		in := tensor.NewDense(32, top.Sizes[0])
		in.Randomize(rng, 1)
		y := top.ForwardDense(pool, in)
		if y.C != 1 || y.N != 32 {
			t.Fatalf("top output %dx%d", y.N, y.C)
		}
		dx := top.Backward(pool, y.Clone(), true)
		if l := top.Layers[0]; dx.C != l.W.C || l.BC < 8 {
			t.Fatalf("top input %d: dX is %d wide in blocks of %d, W is %d wide", top.Sizes[0], dx.C, l.BC, l.W.C)
		}
		sgdStep(top, 0.1)
	}
	bot.Backward(pool, h.Clone(), false)
	sgdStep(bot, 0.1)
}

// TestPadWidth pins the pad rule: widths that block at 8 or more, or fit
// one block, keep their width (and so their blocks); the rest round up to a
// multiple of 16.
func TestPadWidth(t *testing.T) {
	for _, c := range []struct{ dim, want, bc int }{
		{1, 1, 1}, {13, 13, 13}, {16, 16, 16}, {61, 61, 61}, {64, 64, 64}, {100, 100, 50},
		{357, 357, 51}, {512, 512, 64}, {1024, 1024, 64}, {2336, 2336, 32},
		{383, 384, 64}, {479, 480, 60}, {67, 80, 40}, {134, 144, 48},
	} {
		got := padWidth(c.dim)
		if got != c.want || BlockPick(got, 64) != c.bc {
			t.Errorf("padWidth(%d) = %d in blocks of %d, want %d in blocks of %d", c.dim, got, BlockPick(got, 64), c.want, c.bc)
		}
	}
}

// unpadded is New with the input stored at its logical width — the bc = 1
// layout a prime input width had before padWidth. Tests only.
func unpadded(sizes []int, bn int, hiddenAct, lastAct Activation, rng *rand.Rand) *MLP {
	return newMLP(sizes, bn, hiddenAct, lastAct, rng, sizes[0])
}

// TestPaddedEqualsUnpadded holds the padded layer to the layout it
// replaces, bit for bit, on the vector kernels: same initial weights from
// the same seed, same forward, dX, DW, DBias, and same weights after SGD
// steps — with the pad column of W, DW and dX exactly zero throughout.
func TestPaddedEqualsUnpadded(t *testing.T) {
	if gemm.KernelISA() == "go" {
		t.Skip("the Go kernel groups the reduction four at a time, so its rounding depends on bc")
	}
	pool := par.NewPool(2)
	defer pool.Close()
	const n, bn = 32, 16
	bits := math.Float32bits
	for _, sizes := range [][]int{{383, 128, 64}, {479, 64}} {
		pad := New(sizes, bn, ReLU, None, rand.New(rand.NewSource(11)))
		ref := unpadded(sizes, bn, ReLU, None, rand.New(rand.NewSource(11)))
		c := sizes[0]
		l0, r0 := pad.Layers[0], ref.Layers[0]
		if l0.C != c || l0.W.C == c || l0.BC < 8 || r0.W.C != c || r0.BC != 1 {
			t.Fatalf("%v: padded layer %d/%d wide in blocks of %d, reference %d in blocks of %d", sizes, l0.C, l0.W.C, l0.BC, r0.W.C, r0.BC)
		}
		// sameWeights compares one weight-shaped tensor of every layer:
		// logical columns equal, the padded layer's extra columns zero.
		sameWeights := func(when, name string, of func(*Layer) *tensor.Weights) {
			t.Helper()
			for li, l := range pad.Layers {
				w, r := of(l), of(ref.Layers[li])
				for k := 0; k < w.K; k++ {
					for ci := 0; ci < w.C; ci++ {
						var want float32
						if ci < l.C {
							want = r.At(k, ci)
						}
						if got := w.At(k, ci); bits(got) != bits(want) {
							t.Fatalf("%v %s: layer %d %s[%d][%d] = %g, unpadded %g", sizes, when, li, name, k, ci, got, want)
						}
					}
				}
			}
		}
		sameVec := func(when, name string, got, want []float32) {
			t.Helper()
			for i := range want {
				if bits(got[i]) != bits(want[i]) {
					t.Fatalf("%v %s: %s[%d] = %g, unpadded %g", sizes, when, name, i, got[i], want[i])
				}
			}
		}
		sameParams := func(when string) {
			t.Helper()
			sameWeights(when, "W", func(l *Layer) *tensor.Weights { return l.W })
			for li, l := range pad.Layers {
				sameVec(when, "Bias", l.Bias, ref.Layers[li].Bias)
			}
		}
		sameParams("at init")

		rng := rand.New(rand.NewSource(12))
		for step := 0; step < 10; step++ {
			when := fmt.Sprintf("step %d", step)
			xD := tensor.NewDense(n, c)
			xD.Randomize(rng, 1)
			dyD := tensor.NewDense(n, sizes[len(sizes)-1])
			dyD.Randomize(rng, 1)
			y, ry := pad.ForwardDense(pool, xD), ref.ForwardDense(pool, xD)
			sameVec(when, "y", y.Data, ry.Data)

			dx := pad.Backward(pool, tensor.PackActs(dyD, bn, y.BC), true)
			rdx := ref.Backward(pool, tensor.PackActs(dyD, bn, ry.BC), true)
			for smp := 0; smp < n; smp++ {
				for ci := 0; ci < dx.C; ci++ {
					var want float32
					if ci < c {
						want = rdx.At(smp, ci)
					}
					if got := dx.At(smp, ci); bits(got) != bits(want) {
						t.Fatalf("%v %s: dX[%d][%d] = %g, unpadded %g", sizes, when, smp, ci, got, want)
					}
				}
			}
			sameWeights(when, "DW", func(l *Layer) *tensor.Weights { return l.DW })
			for li, l := range pad.Layers {
				sameVec(when, "DBias", l.DBias, ref.Layers[li].DBias)
			}
			sgdStep(pad, 0.05)
			sgdStep(ref, 0.05)
			sameParams(when + " after Step")
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

// BenchmarkPrimeInput times forward + backward (with dX) of a stack whose
// input width is prime, stored padded (New) and at its logical width in
// blocks of one column (the layout before padWidth).
func BenchmarkPrimeInput(b *testing.B) {
	pool := par.NewPool(2)
	defer pool.Close()
	const n, bn = 256, 16
	for _, sizes := range [][]int{{383, 128, 64}, {479, 512, 256}} {
		for name, build := range map[string]func([]int, int, Activation, Activation, *rand.Rand) *MLP{"padded": New, "unpadded": unpadded} {
			b.Run(fmt.Sprintf("%d/%s", sizes[0], name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				m := build(sizes, bn, ReLU, None, rng)
				xD := tensor.NewDense(n, sizes[0])
				xD.Randomize(rng, 1)
				var in *tensor.Acts
				x := m.PackInput(&in, xD)
				dy := m.Forward(pool, x).Clone()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Forward(pool, x)
					m.Backward(pool, dy, true)
				}
			})
		}
	}
}
