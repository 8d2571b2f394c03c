package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// zipfTestU is draw i of a counter-keyed uniform stream, so the tests below
// are deterministic: same draws every run, no rand.Rand state to seed or
// share.
func zipfTestU(i uint64) float64 {
	g := rng.Stream(i)
	return g.Float64()
}

// TestZipfDrawSkewMatchesAnalyticCDF checks the generator is actually
// skewed the way the tiered-store cost model assumes: the empirical mass
// DrawU places on the head [0, k) must match Zipf.HeadMass — the CDF of
// the continuous analogue DrawU inverts — within a tolerance a few times
// the binomial standard error. The embstore figure's hit-rate axis and the
// cold-tier timing charge both ride on this.
func TestZipfDrawSkewMatchesAnalyticCDF(t *testing.T) {
	const (
		m = 100_000
		n = 200_000
	)
	var ctr uint64
	for _, s := range []float64{0.8, 1.0, 1.05, 1.2} {
		z := Zipf{S: s}
		heads := []int{10, 100, 1_000, 10_000}
		counts := make([]int, len(heads))
		for i := 0; i < n; i++ {
			r := int(z.DrawU(zipfTestU(ctr), m))
			ctr++
			for j, k := range heads {
				if r < k {
					counts[j]++
				}
			}
		}
		for j, k := range heads {
			emp := float64(counts[j]) / n
			ana := z.HeadMass(k, m)
			// DrawU floors the continuous draw, so the discrete head mass
			// sits slightly above F(k+1); allow 5σ plus that bias margin.
			tol := 5*math.Sqrt(ana*(1-ana)/n) + 0.004
			if math.Abs(emp-ana) > tol {
				t.Errorf("s=%.2f head %d/%d: empirical mass %.4f vs analytic %.4f (tol %.4f)",
					s, k, m, emp, ana, tol)
			}
		}
	}
}

// TestZipfHeadMassProperties pins the CDF's edge cases and shape: bounds at
// the extremes, monotone in the head size, and — for any fixed small head —
// monotone in the skew (hotter traffic concentrates more mass), which is
// what makes the embstore figure's skew axis move.
func TestZipfHeadMassProperties(t *testing.T) {
	const m = 50_000
	for _, s := range []float64{0.5, 0.8, 1.0, 1.05, 1.2, 2.0} {
		z := Zipf{S: s}
		if got := z.HeadMass(0, m); got != 0 {
			t.Errorf("s=%v: HeadMass(0) = %v, want 0", s, got)
		}
		if got := z.HeadMass(-3, m); got != 0 {
			t.Errorf("s=%v: HeadMass(-3) = %v, want 0", s, got)
		}
		if got := z.HeadMass(m, m); got != 1 {
			t.Errorf("s=%v: HeadMass(m) = %v, want 1", s, got)
		}
		if got := z.HeadMass(m+10, m); got != 1 {
			t.Errorf("s=%v: HeadMass(m+10) = %v, want 1", s, got)
		}
		prev := 0.0
		for _, k := range []int{1, 10, 100, 1_000, 10_000, m} {
			h := z.HeadMass(k, m)
			if h < prev {
				t.Errorf("s=%v: HeadMass not monotone at k=%d: %v < %v", s, k, h, prev)
			}
			prev = h
		}
	}
	for _, k := range []int{10, 100, 1_000} {
		prev := 0.0
		for _, s := range []float64{0.5, 0.8, 1.0, 1.05, 1.2, 2.0} {
			h := Zipf{S: s}.HeadMass(k, m)
			if h <= prev {
				t.Errorf("k=%d: HeadMass not increasing in skew at s=%v: %v <= %v", k, s, h, prev)
			}
			prev = h
		}
	}
	// s <= 0 falls back to s = 1, matching DrawU's fallback.
	if a, b := (Zipf{S: 0}).HeadMass(100, m), (Zipf{S: 1}).HeadMass(100, m); a != b {
		t.Errorf("s=0 fallback: %v != s=1 mass %v", a, b)
	}
}

// drawUExact is Zipf.DrawU as it was before samplers existed — every draw
// two math.Pow — and stays here as the definition the sampler must equal.
func drawUExact(s, u float64, m int) int32 {
	var x float64
	if s == 1 {
		x = math.Exp(u * math.Log(float64(m)+1))
	} else {
		hi := math.Pow(float64(m)+1, 1-s)
		x = math.Pow(u*(hi-1)+1, 1/(1-s))
	}
	r := int32(x) - 1
	if r < 0 {
		r = 0
	}
	if int(r) >= m {
		r = int32(m - 1)
	}
	return r
}

// TestSamplerEqualsExactDraw holds the sampler to the integer the exact
// formula gives, where the two are most likely to differ: a few ulp either
// side of every u at which the continuous draw crosses an integer (every
// threshold of the small tables, a sample of them up to the largest Criteo
// table), the same around the edges of the bucket table's buckets (every
// head edge of the small tables, a stride of them for the rest), and on ten
// million uniform draws. Each u is drawn from a cold slot (its bucket
// undecided, so the draw decides it) and again from the warm one. The 32
// (s, m) tables are parallel subtests; table c draws the uniform u of
// stream indices [c·320 000, (c+1)·320 000).
func TestSamplerEqualsExactDraw(t *testing.T) {
	const ulps, draws = 40, 320_000
	check := func(t *testing.T, s float64, z ZipfSampler, m int, u float64) {
		if u < 0 || u >= 1 {
			return
		}
		if j := int(u * z.buckets); j < len(z.head) {
			z.head[j].Store(0)
		}
		cold := z.DrawU(u)
		warm := z.DrawU(u)
		if want := drawUExact(s, u, m); cold != want || warm != want {
			t.Fatalf("s=%v m=%d u=%v (%#x): sampler rows %d cold, %d warm; exact row %d",
				s, m, u, math.Float64bits(u), cold, warm, want)
		}
	}
	probe := func(t *testing.T, s float64, z ZipfSampler, m int, u float64) {
		lo, hi := u, u
		check(t, s, z, m, u)
		for i := 0; i < ulps; i++ {
			lo, hi = math.Nextafter(lo, -1), math.Nextafter(hi, 2)
			check(t, s, z, m, lo)
			check(t, s, z, m, hi)
		}
	}
	var total atomic.Uint64
	t.Run("tables", func(t *testing.T) {
		c := uint64(0)
		for _, s := range []float64{0.5, 1, 1.05, 2} {
			for _, m := range []int{1, 3, 17, 1000, 38_949, 100_000, 250_000, 39_884_406} {
				ctr := c * draws
				c++
				t.Run(fmt.Sprintf("s=%v,m=%d", s, m), func(t *testing.T) {
					t.Parallel()
					z := Zipf{S: s}.Sampler(m)
					if len(z.head) == 0 {
						t.Fatalf("s=%v m=%d: no bucket table", s, m)
					}
					// About a thousand thresholds per table: all of them when
					// the table is that small, else every stride-th plus the
					// last ones.
					stride := max(1, m/1000)
					for k := 1; k <= m+1; k++ {
						if k%stride != 0 && k < m-16 {
							continue
						}
						// u at which x = k: the CDF of p(x) ∝ x^-s on [1, m+1).
						var u float64
						if s == 1 {
							u = math.Log(float64(k)) / math.Log(float64(m)+1)
						} else {
							u = (math.Pow(float64(k), 1-s) - 1) / (math.Pow(float64(m)+1, 1-s) - 1)
						}
						probe(t, s, z, m, u)
					}
					stride = 1
					if m > 1000 {
						stride = max(1, len(z.head)/1000)
					}
					for j := 0; j <= len(z.head); j += stride {
						probe(t, s, z, m, float64(j)/z.buckets)
					}
					for i := uint64(0); i < draws; i++ {
						check(t, s, z, m, zipfTestU(ctr+i))
					}
					total.Add(draws)
				})
			}
		}
	})
	if n := total.Load(); !t.Failed() && n < 10_000_000 {
		t.Fatalf("only %d random draws", n)
	}
}

// TestZipfTableSize holds the bucket table to its sizing rule — B the power
// of two ≥ 4m, at most 2¹⁶, slots only for the head — and to the cases that
// get none: samplers outside the error argument (|1 − s| < 0.001) and the
// one-shot draws, which must not allocate.
func TestZipfTableSize(t *testing.T) {
	for _, c := range []struct{ m, b int }{{1, 4}, {3, 16}, {17, 128}, {1000, 4096}, {16_384, 1 << 16}, {250_000, 1 << 16}} {
		z := Zipf{S: 1.05}.Sampler(c.m)
		if z.buckets != float64(c.b) || len(z.head) < 1 || len(z.head) > c.b {
			t.Errorf("m=%d: %v buckets, %d slots; want %d buckets, 1..%[4]d slots", c.m, z.buckets, len(z.head), c.b)
		}
	}
	// The train-emb tables: the head is about 70 % of u, 180 KB of slots.
	if n := len(Zipf{S: 1.05}.Sampler(250_000).head); n < 40_000 || n > 50_000 {
		t.Errorf("m=250000: %d head slots, want about 45 600", n)
	}
	if z := (Zipf{S: 0.9995}).Sampler(1000); z.head != nil {
		t.Errorf("s=0.9995 has %d slots; samplers without the error bound take no table", len(z.head))
	}
	z := Zipf{S: 1.05}
	r := rand.New(rand.NewSource(1))
	if a := testing.AllocsPerRun(100, func() { _ = z.DrawU(0.3, 250_000) + z.Draw(r, 250_000) }); a != 0 {
		t.Errorf("one-shot Zipf draws allocate %v times per call", a)
	}
}

// TestZipfTableConcurrentFirstFill has eight goroutines make the first
// draws of one sampler over the same uniforms in the same order, so they
// race to decide the same slots; every draw must equal the exact one. Under
// -race this is also the data-race check for the slots.
func TestZipfTableConcurrentFirstFill(t *testing.T) {
	const (
		s       = 1.05
		m       = 250_000
		draws   = 20_000
		workers = 8
	)
	z := Zipf{S: s}.Sampler(m)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < draws; i++ {
				u := zipfTestU(i)
				if got, want := z.DrawU(u), drawUExact(s, u, m); got != want {
					errs <- fmt.Sprintf("u=%v: sampler row %d, exact row %d", u, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkZipfDraw times one draw at the train-emb table shape: the sampler
// on one table, the sampler on the eight tables of train-emb drawn in turn
// (their slots compete for cache, as in the generator), DrawBag over bags of
// train-emb's 50 lookups, and the exact two-Pow formula it replaced.
func BenchmarkZipfDraw(b *testing.B) {
	const m = 250_000
	b.Run("sampler", func(b *testing.B) {
		z := Zipf{S: 1.05}.Sampler(m)
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += z.DrawU(zipfTestU(uint64(i)))
		}
		_ = sink
	})
	b.Run("sampler8", func(b *testing.B) {
		var zs [8]ZipfSampler
		for t := range zs {
			zs[t] = Zipf{S: 1.05}.Sampler(m)
		}
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += zs[i&7].DrawU(zipfTestU(uint64(i)))
		}
		_ = sink
	})
	b.Run("bag", func(b *testing.B) {
		z := Zipf{S: 1.05}.Sampler(m)
		var u [50]float64
		var dst [50]int32
		var sink int32
		for i := 0; i < b.N; i += len(u) {
			for j := range u {
				u[j] = zipfTestU(uint64(i + j))
			}
			z.DrawBag(dst[:], u[:])
			sink += dst[0]
		}
		_ = sink
	})
	b.Run("exact", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += drawUExact(1.05, zipfTestU(uint64(i)), m)
		}
		_ = sink
	})
}
