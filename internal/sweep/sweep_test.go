package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withKernel runs f with the dispatch variable pinned to k (nil = Go bodies).
func withKernel(k *kernelSet, f func()) {
	old := kernel
	kernel = k
	defer func() { kernel = old }()
	f()
}

// needVector skips t on a machine without a vector kernel.
func needVector(t testing.TB) {
	if len(kernels) == 0 {
		t.Skip("no vector kernel on this machine")
	}
}

// hostile are the values every sweep must carry through exactly.
var hostile = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), math.Float32frombits(0x7fc12345), math.Float32frombits(0xffa00001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), 1e-40, -3e-39,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// fill returns n values: mostly uniform in [−2, 2), with a hostile value in
// roughly one slot of eight.
func fill(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = hostile[rng.Intn(len(hostile))]
		} else {
			s[i] = rng.Float32()*4 - 2
		}
	}
	return s
}

// same is bit equality, except that any two NaNs are the same.
func same(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func diff(t testing.TB, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// guard is the value written past every output; a sweep that touches it
// has stepped outside its extent.
const guard = 12345.678

func withGuard(s []float32, pad int) []float32 {
	out := make([]float32, len(s)+pad)
	copy(out, s)
	for i := len(s); i < len(out); i++ {
		out[i] = guard
	}
	return out
}

// sweepCase runs all four sweeps over one shape with one seed and returns
// their outputs, guard floats included, in a fixed order.
func sweepCase(seed int64, bc, bk, rows int, act Act) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	src := fill(rng, bc*bk)
	dst := withGuard(fill(rng, bc*bk), 17)
	Transpose(dst, src, bc, bk)

	n := bc*bk + rows
	p, g := withGuard(fill(rng, n), 17), fill(rng, n)
	SGD(p[:n], g, rng.Float32()*0.1)

	bias := fill(rng, bk)
	blk := withGuard(fill(rng, rows*bk), 17)
	Bias(blk[:rows*bk], bias, rows, act)

	dy, y := fill(rng, rows*bk), fill(rng, rows*bk)
	dz := withGuard(fill(rng, rows*bk), 17)
	db := withGuard(fill(rng, bk), 17)
	Grad(dz[:rows*bk], dy, y, db[:bk], act)
	return [][]float32{dst, p, blk, dz, db}
}

var sweepNames = []string{"Transpose", "SGD", "Bias", "Grad dz", "Grad db"}

// checkCase holds every vector kernel to the Go bodies on one case.
func checkCase(t testing.TB, seed int64, bc, bk, rows int, act Act) {
	t.Helper()
	var want [][]float32
	withKernel(nil, func() { want = sweepCase(seed, bc, bk, rows, act) })
	for _, k := range kernels {
		withKernel(k, func() {
			got := sweepCase(seed, bc, bk, rows, act)
			for i := range got {
				diff(t, fmt.Sprintf("%s %s bc=%d bk=%d rows=%d act=%d", k.isa, sweepNames[i], bc, bk, rows, act), got[i], want[i])
			}
		})
	}
}

// TestKernelsEqualGo: AVX-512 == AVX2 == Go bit for bit over every bc and
// bk from 1 to 130 (both register-transpose edges, the 13 / 50 / 64 blocks
// the MLPs use, the masked tails), random row counts, and values that mix
// ±0, NaNs with payloads, ±Inf and denormals into the uniform ones.
func TestKernelsEqualGo(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(39))
	for bc := 1; bc <= 130; bc++ {
		bk := 1 + rng.Intn(130)
		if bc%3 == 0 {
			bk = []int{1, 13, 50, 64, 65, 128}[bc/3%6]
		}
		checkCase(t, int64(bc), bc, bk, 1+rng.Intn(70), Act(bc%2))
	}
	for bk := 1; bk <= 130; bk++ {
		checkCase(t, int64(1000+bk), 1+rng.Intn(130), bk, 1+rng.Intn(70), Act(bk%2))
	}
	for _, s := range [][2]int{{13, 64}, {64, 13}, {50, 64}, {64, 50}, {64, 64}, {64, 1}, {1, 64}, {16, 16}, {8, 8}} {
		for _, act := range []Act{Linear, ReLU} {
			checkCase(t, 7, s[0], s[1], 128, act)
		}
	}
}

// TestReLUZerosAndNaN pins the two places a max could go wrong: −0 and a
// sum of −0 come out +0, and a NaN pre-activation stays NaN — on every
// kernel. dz keeps dy where y is NaN and writes +0 where y ≤ 0.
func TestReLUZerosAndNaN(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	for _, k := range append([]*kernelSet{nil}, kernels...) {
		withKernel(k, func() {
			blk := []float32{negZero, negZero, 0, nan, -1, 2, negZero, 3}
			Bias(blk, []float32{negZero, 0, negZero, 0, 0, 0, 1, -3}, 1, ReLU)
			want := []uint32{0, 0, 0, 0, 0, math.Float32bits(2), math.Float32bits(1), 0}
			for i, v := range blk {
				if i == 3 {
					if v == v {
						t.Errorf("%s: ReLU(NaN) = %v", KernelISA(), v)
					}
					continue
				}
				if math.Float32bits(v) != want[i] {
					t.Errorf("%s: ReLU lane %d = %v (%#x), want %#x", KernelISA(), i, v, math.Float32bits(v), want[i])
				}
			}
			dy := []float32{negZero, 5, 6, 7}
			y := []float32{1, nan, negZero, -2}
			dz, db := make([]float32, 4), make([]float32, 4)
			Grad(dz, dy, y, db, ReLU)
			wantDz := []uint32{math.Float32bits(negZero), math.Float32bits(5), 0, 0}
			for i := range dz {
				if math.Float32bits(dz[i]) != wantDz[i] {
					t.Errorf("%s: dz[%d] = %#x, want %#x", KernelISA(), i, math.Float32bits(dz[i]), wantDz[i])
				}
			}
			// db starts at +0, so +0 + (−0) = +0.
			if math.Float32bits(db[0]) != 0 {
				t.Errorf("%s: db[0] = %#x, want +0", KernelISA(), math.Float32bits(db[0]))
			}
		})
	}
}

// TestSGDTwoRoundings: lr·g is rounded before the subtraction. The values
// are chosen so that a fused multiply-add gives a different float32, so a
// kernel that fused would fail here on every ISA.
func TestSGDTwoRoundings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p, g, lr float32
	for {
		p, g, lr = rng.Float32(), rng.Float32(), rng.Float32()
		fused := float32(math.FMA(-float64(lr), float64(g), float64(p)))
		if fused != p-float32(lr*g) {
			break
		}
	}
	want := p - float32(lr*g)
	for _, k := range append([]*kernelSet{nil}, kernels...) {
		withKernel(k, func() {
			// Every lane of a full vector, the 16- and 8-wide steps and the
			// masked tail.
			for _, n := range []int{1, 7, 8, 15, 16, 17, 64, 100} {
				ps, gs := make([]float32, n), make([]float32, n)
				for i := range ps {
					ps[i], gs[i] = p, g
				}
				SGD(ps, gs, lr)
				for i, v := range ps {
					if v != want {
						t.Fatalf("%s: n=%d [%d] = %v, want p − round(lr·g) = %v", KernelISA(), n, i, v, want)
					}
				}
			}
		})
	}
}

// TestTransposeIsTranspose checks every body against the definition, so
// that the differential tests above compare with a transpose.
func TestTransposeIsTranspose(t *testing.T) {
	for _, k := range append([]*kernelSet{nil}, kernels...) {
		withKernel(k, func() {
			for _, s := range [][2]int{{1, 1}, {13, 64}, {64, 64}, {50, 17}, {33, 130}} {
				bc, bk := s[0], s[1]
				src := make([]float32, bc*bk)
				for i := range src {
					src[i] = float32(i)
				}
				dst := make([]float32, bc*bk)
				Transpose(dst, src, bc, bk)
				for ci := 0; ci < bc; ci++ {
					for ki := 0; ki < bk; ki++ {
						if dst[ki*bc+ci] != src[ci*bk+ki] {
							t.Fatalf("%s %dx%d: dst[%d][%d] = %v, want %v", KernelISA(), bc, bk, ki, ci, dst[ki*bc+ci], src[ci*bk+ki])
						}
					}
				}
			}
		})
	}
}

// TestShortSlicesPanic: every extent is checked before assembly runs.
func TestShortSlicesPanic(t *testing.T) {
	cases := map[string]func(){
		"Transpose src": func() { Transpose(make([]float32, 64), make([]float32, 63), 8, 8) },
		"Transpose dst": func() { Transpose(make([]float32, 63), make([]float32, 64), 8, 8) },
		"SGD":           func() { SGD(make([]float32, 5), make([]float32, 4), 1) },
		"Bias":          func() { Bias(make([]float32, 15), make([]float32, 4), 4, ReLU) },
		"Grad width":    func() { Grad(make([]float32, 10), make([]float32, 10), make([]float32, 10), make([]float32, 4), ReLU) },
		"Grad dy":       func() { Grad(make([]float32, 8), make([]float32, 7), make([]float32, 8), make([]float32, 4), ReLU) },
	}
	for name, f := range cases {
		for _, k := range append([]*kernelSet{nil}, kernels...) {
			withKernel(k, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %s did not panic", name, KernelISA())
					}
				}()
				f()
			})
		}
	}
}

// FuzzSweepsVsGo: random shapes and seeds, every vector kernel against the
// Go bodies bit for bit.
func FuzzSweepsVsGo(f *testing.F) {
	for _, s := range [][3]int{{13, 64, 128}, {64, 64, 64}, {50, 1, 7}, {1, 1, 1}, {130, 130, 3}, {17, 33, 65}} {
		f.Add(int64(s[0]*s[1]), uint8(s[0]), uint8(s[1]), uint8(s[2]), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, bc, bk, rows uint8, relu bool) {
		needVector(t)
		act := Linear
		if relu {
			act = ReLU
		}
		checkCase(t, seed, 1+int(bc)%130, 1+int(bk)%130, 1+int(rows)%130, act)
	})
}

// BenchmarkSweeps prints ns per call of each sweep per kernel at the
// train-mlp shapes: a 64×64 weight block, the 512×256 layer's SGD, a
// 128-sample feature block of 64 outputs. The values are uniform: a
// denormal costs the scalar Go body a microcode assist per element.
func BenchmarkSweeps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()*4 - 2
		}
		return s
	}
	src, dst := uniform(64*64), make([]float32, 64*64)
	p, g := uniform(512*256), uniform(512*256)
	bias, blk := uniform(64), uniform(128*64)
	dy, y, dz, db := uniform(128*64), uniform(128*64), make([]float32, 128*64), make([]float32, 64)
	for _, k := range append([]*kernelSet{nil}, kernels...) {
		name := "go"
		if k != nil {
			name = k.isa
		}
		withKernel(k, func() {
			b.Run("transpose64x64/"+name, func(b *testing.B) {
				for range b.N {
					Transpose(dst, src, 64, 64)
				}
			})
			b.Run("sgd512x256/"+name, func(b *testing.B) {
				for range b.N {
					SGD(p, g, 1e-9)
				}
			})
			b.Run("biasReLU128x64/"+name, func(b *testing.B) {
				for range b.N {
					Bias(blk, bias, 128, ReLU)
				}
			})
			b.Run("gradReLU128x64/"+name, func(b *testing.B) {
				for range b.N {
					Grad(dz, dy, y, db, ReLU)
				}
			})
		})
	}
}
