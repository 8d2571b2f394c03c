package interaction

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/par"
)

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestDotForwardValues(t *testing.T) {
	// S=2, E=2, N=1, hand-computed.
	d := NewDot(2, 2)
	pool := par.NewPool(1)
	bottom := []float32{1, 2}
	emb := [][]float32{{3, 4}, {5, 6}}
	out := make([]float32, d.OutputDim())
	d.Forward(pool, 1, bottom, emb, out)
	// concat: [1 2], pairs: <e1,b>=3+8=11, <e2,b>=5+12=17, <e2,e1>=15+24=39
	want := []float32{1, 2, 11, 17, 39}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d]=%g want %g (out=%v)", i, out[i], want[i], out)
		}
	}
}

func TestDotOutputDim(t *testing.T) {
	if NewDot(8, 64).OutputDim() != 64+36 {
		t.Fatal("OutputDim wrong for S=8")
	}
	if NewDot(26, 128).OutputDim() != 128+27*26/2 {
		t.Fatal("OutputDim wrong for S=26")
	}
	if NewDot(3, 4).NumPairs() != 6 {
		t.Fatal("NumPairs wrong")
	}
}

// TestDotBackwardNumerically checks the analytic gradients against central
// differences of L = Σ out·coef, at a toy shape and at the MLPerf one (27
// vectors: tile remainders in both directions).
func TestDotBackwardNumerically(t *testing.T) {
	for _, sh := range [][3]int{{3, 4, 5}, {3, 26, 32}} {
		dotBackwardNumerically(t, sh[0], sh[1], sh[2])
	}
}

func dotBackwardNumerically(t *testing.T, n, s, e int) {
	rng := rand.New(rand.NewSource(1))
	pool := par.NewPool(2)
	d := NewDot(s, e)
	bottom := randVec(rng, n*e)
	emb := make([][]float32, s)
	for i := range emb {
		emb[i] = randVec(rng, n*e)
	}
	coef := randVec(rng, n*d.OutputDim())

	lossOf := func() float64 {
		out := make([]float32, n*d.OutputDim())
		d.Forward(pool, n, bottom, emb, out)
		var l float64
		for i := range out {
			l += float64(out[i]) * float64(coef[i])
		}
		return l
	}

	out := make([]float32, n*d.OutputDim())
	d.Forward(pool, n, bottom, emb, out)
	dBottom := make([]float32, n*e)
	dEmb := make([][]float32, s)
	for i := range dEmb {
		dEmb[i] = make([]float32, n*e)
	}
	d.Backward(pool, coef, dBottom, dEmb)

	const eps = 1e-3
	check := func(name string, vec, grad []float32) {
		for trial := 0; trial < 10; trial++ {
			i := rng.Intn(len(vec))
			orig := vec[i]
			vec[i] = orig + eps
			lp := lossOf()
			vec[i] = orig - eps
			lm := lossOf()
			vec[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > 1e-2*(1+math.Abs(num)) {
				t.Errorf("S=%d E=%d %s[%d]: numeric %g analytic %g", s, e, name, i, num, grad[i])
			}
		}
	}
	check("bottom", bottom, dBottom)
	for ti := range emb {
		check("emb", emb[ti], dEmb[ti])
	}
}

func TestConcatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := par.NewPool(2)
	const n, s, e = 4, 3, 6
	c := NewConcat(s, e)
	bottom := randVec(rng, n*e)
	emb := make([][]float32, s)
	for i := range emb {
		emb[i] = randVec(rng, n*e)
	}
	out := make([]float32, n*c.OutputDim())
	c.Forward(pool, n, bottom, emb, out)
	// Backward of identity gradient must reproduce the inputs.
	dBottom := make([]float32, n*e)
	dEmb := make([][]float32, s)
	for i := range dEmb {
		dEmb[i] = make([]float32, n*e)
	}
	c.Backward(pool, out, dBottom, dEmb)
	for i := range bottom {
		if dBottom[i] != bottom[i] {
			t.Fatal("concat backward lost bottom values")
		}
	}
	for ti := range emb {
		for i := range emb[ti] {
			if dEmb[ti][i] != emb[ti][i] {
				t.Fatal("concat backward lost table values")
			}
		}
	}
}

// TestDotShapePanics: every wrong-length argument is refused by the
// operator's own checks — a panic carrying its message, not an index fault
// from inside a kernel.
func TestDotShapePanics(t *testing.T) {
	const n, s, e = 2, 2, 4
	pool := par.NewPool(1)
	od := NewDot(s, e).OutputDim()
	vec := func(k int) []float32 { return make([]float32, k) }
	tabs := func(lens ...int) [][]float32 {
		ts := make([][]float32, len(lens))
		for i, l := range lens {
			ts[i] = vec(l)
		}
		return ts
	}
	forward := func(bottom []float32, emb [][]float32, out []float32) func(*Dot) {
		return func(d *Dot) { d.Forward(pool, n, bottom, emb, out) }
	}
	backward := func(dOut, dBottom []float32, dEmb [][]float32) func(*Dot) {
		return func(d *Dot) {
			d.Forward(pool, n, vec(n*e), tabs(n*e, n*e), vec(n*od))
			d.Backward(pool, dOut, dBottom, dEmb)
		}
	}
	for name, call := range map[string]func(*Dot){
		"table count":    forward(vec(n*e), tabs(n*e), vec(n*od)),
		"short table":    forward(vec(n*e), tabs(n*e, n*e-1), vec(n*od)),
		"short bottom":   forward(vec(n*e-1), tabs(n*e, n*e), vec(n*od)),
		"short out":      forward(vec(n*e), tabs(n*e, n*e), vec(n*od-1)),
		"short dOut":     backward(vec(n*od-1), vec(n*e), tabs(n*e, n*e)),
		"short dBottom":  backward(vec(n*od), vec(n*e-1), tabs(n*e, n*e)),
		"dEmb count":     backward(vec(n*od), vec(n*e), tabs(n*e)),
		"short dEmb row": backward(vec(n*od), vec(n*e), tabs(n*e, n*e-1)),
	} {
		for _, tiles := range []bool{true, false} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "interaction: ") {
						t.Errorf("%s (tiles=%v): recovered %q, want the operator's own panic", name, tiles, msg)
					}
				}()
				d := NewDot(s, e)
				d.tiles = d.tiles && tiles
				call(d)
			}()
		}
	}
}

// dotCase is one forward + backward problem.
type dotCase struct {
	n, s, e      int
	bottom, dOut []float32
	emb          [][]float32
}

// dotResult is what one Forward + Backward writes.
type dotResult struct {
	out, dBottom []float32
	dEmb         [][]float32
}

func (c *dotCase) run(d *Dot, pool *par.Pool) dotResult {
	r := dotResult{out: make([]float32, c.n*d.OutputDim()), dBottom: make([]float32, c.n*c.e), dEmb: make([][]float32, c.s)}
	for i := range r.dEmb {
		r.dEmb[i] = make([]float32, c.n*c.e)
	}
	d.Forward(pool, c.n, c.bottom, c.emb, r.out)
	d.Backward(pool, c.dOut, r.dBottom, r.dEmb)
	return r
}

// flat returns every value of r as one slice: out, dBottom, dEmb[0], ….
func (r dotResult) flat() []float32 {
	f := append(append([]float32(nil), r.out...), r.dBottom...)
	for _, g := range r.dEmb {
		f = append(f, g...)
	}
	return f
}

// fuzzValue draws from the values the kernels must get right: exact zeros,
// denormals of both signs, magnitudes whose products approach the float32
// range from either side, and ordinary ones.
func fuzzValue(rng *rand.Rand) float32 {
	sign := float32(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return sign * 1e-40
	case 2:
		return sign * 1e18
	case 3:
		return sign * 1e-18
	}
	return rng.Float32()*2 - 1
}

// newDotCase fills a problem with values from draw.
func newDotCase(n, s, e int, seed int64, draw func(*rand.Rand) float32) *dotCase {
	rng := rand.New(rand.NewSource(seed))
	vec := func(k int) []float32 {
		v := make([]float32, k)
		for i := range v {
			v[i] = draw(rng)
		}
		return v
	}
	c := &dotCase{n: n, s: s, e: e, bottom: vec(n * e), dOut: vec(n * (e + (s+1)*s/2)), emb: make([][]float32, s)}
	for i := range c.emb {
		c.emb[i] = vec(n * e)
	}
	return c
}

func uniformValue(rng *rand.Rand) float32 { return rng.Float32()*2 - 1 }

// bounds returns, for every value of a result in flat order, how far the
// tile bodies may sit from the Go oracle. Both sum the same k products in
// the same order; the tiles round once per fused multiply-add, the oracle
// after the multiply and again after the add, so the two differ by at most
// 2k+2 ulps of Σ|product| (an ulp being 2⁻²⁴ of it), plus one denormal
// quantum per product the oracle's multiply may have flushed.
func (c *dotCase) bounds() []float64 {
	n, s, e := c.n, c.s, c.e
	od := e + (s+1)*s/2
	feat := func(smp, i int) []float32 {
		if i == 0 {
			return c.bottom[smp*e : (smp+1)*e]
		}
		return c.emb[i-1][smp*e : (smp+1)*e]
	}
	tol := func(k int, sumAbs float64) float64 {
		return float64(2*k+2)*sumAbs/(1<<24) + float64(k)*math.SmallestNonzeroFloat32
	}
	out := make([]float64, n*od)
	grads := make([][]float64, s+1) // row i: N×E sums of |g·x| into feature i
	for i := range grads {
		grads[i] = make([]float64, n*e)
	}
	for smp := 0; smp < n; smp++ {
		pos := smp*od + e
		for i := 1; i <= s; i++ {
			for j := 0; j < i; j++ {
				fi, fj, g := feat(smp, i), feat(smp, j), math.Abs(float64(c.dOut[pos]))
				var sum float64
				for k := 0; k < e; k++ {
					sum += math.Abs(float64(fi[k]) * float64(fj[k]))
					grads[i][smp*e+k] += g * math.Abs(float64(fj[k]))
					grads[j][smp*e+k] += g * math.Abs(float64(fi[k]))
				}
				out[pos] = tol(e, sum)
				pos++
			}
		}
		for k := 0; k < e; k++ { // the bottom row's chain starts at dOut's dense slice
			grads[0][smp*e+k] += math.Abs(float64(c.dOut[smp*od+k]))
		}
	}
	for _, g := range grads {
		for _, sumAbs := range g {
			out = append(out, tol(s+1, sumAbs))
		}
	}
	return out
}

// checkDotCase holds the tile bodies to the Go oracle within bounds(), and
// to themselves bit for bit: every vector kernel of this machine, at one
// worker and at three, must write the same bits.
func checkDotCase(t *testing.T, c *dotCase, pool1, pool3 *par.Pool) {
	t.Helper()
	oracle := NewDot(c.s, c.e)
	oracle.tiles = false
	want, tol := c.run(oracle, pool1).flat(), c.bounds()

	var first []float32
	eachVectorKernel(func(ki int) {
		for _, pool := range []*par.Pool{pool1, pool3} {
			got := c.run(NewDot(c.s, c.e), pool).flat()
			if first == nil {
				first = got
				for i := range got {
					if d := math.Abs(float64(got[i]) - float64(want[i])); !(d <= tol[i]) {
						t.Fatalf("n=%d S=%d E=%d value %d: tiles %g, oracle %g, off by %g > %g", c.n, c.s, c.e, i, got[i], want[i], d, tol[i])
					}
				}
				continue
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(first[i]) {
					t.Fatalf("n=%d S=%d E=%d value %d: kernel %d with %d workers wrote %g (%#x), the first run %g (%#x)",
						c.n, c.s, c.e, i, ki, pool.NumWorkers(), got[i], math.Float32bits(got[i]), first[i], math.Float32bits(first[i]))
				}
			}
		}
	})
}

// FuzzDotVsOracle drives the dot interaction over S ∈ 1…70, E ∈ 1…256 and
// n ∈ 1…9 with values from fuzzValue — widths that are no multiple of a
// vector, single vectors, denormals, zeros — through checkDotCase.
func FuzzDotVsOracle(f *testing.F) {
	for _, sh := range [][2]int{{8, 64}, {26, 32}, {26, 128}, {64, 256}, {1, 1}} {
		f.Add(uint8(sh[0]-1), uint8(sh[1]-1), uint8(3), int64(sh[0]*sh[1]))
	}
	f.Add(uint8(69), uint8(78), uint8(8), int64(7)) // S = 70, E = 79, n = 9
	pool1, pool3 := par.NewPool(1), par.NewPool(3)
	f.Fuzz(func(t *testing.T, s, e, n uint8, seed int64) {
		checkDotCase(t, newDotCase(1+int(n)%9, 1+int(s)%70, 1+int(e), seed, fuzzValue), pool1, pool3)
	})
}

// TestDotSteadyStateAllocs: after the first call sized the per-worker
// panels, forward and backward allocate nothing.
func TestDotSteadyStateAllocs(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	c := newDotCase(8, 26, 32, 1, uniformValue)
	d := NewDot(c.s, c.e)
	r := c.run(d, pool)
	if allocs := testing.AllocsPerRun(20, func() {
		d.Forward(pool, c.n, c.bottom, c.emb, r.out)
		d.Backward(pool, c.dOut, r.dBottom, r.dEmb)
	}); allocs != 0 {
		t.Fatalf("steady-state forward + backward: %v allocs, want 0", allocs)
	}
}

func BenchmarkDot(b *testing.B) {
	pool := par.NewPool(1)
	for _, sh := range [][2]int{{26, 32}, {8, 64}, {64, 256}} {
		for _, n := range []int{1, 8, 32, 256} {
			c := newDotCase(n, sh[0], sh[1], 1, uniformValue)
			for _, tiles := range []bool{true, false} {
				d := NewDot(c.s, c.e)
				if tiles && !d.tiles {
					continue
				}
				d.tiles = tiles
				r := c.run(d, pool)
				name := fmt.Sprintf("S%d_E%d/n%d/%s", c.s, c.e, n, map[bool]string{true: "tiles", false: "go"}[tiles])
				perSample := func(b *testing.B) {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*n), "us/sample")
				}
				b.Run("fwd/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						d.Forward(pool, n, c.bottom, c.emb, r.out)
					}
					perSample(b)
				})
				b.Run("bwd/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						d.Backward(pool, c.dOut, r.dBottom, r.dEmb)
					}
					perSample(b)
				})
			}
		}
	}
}
