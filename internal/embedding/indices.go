package embedding

import (
	"math"
	"math/rand"
)

// IndexDist describes how lookup indices are drawn from a table's rows.
// The paper's Small/Large configs use a random (uniform) dataset; the MLPerf
// config uses the Criteo Terabyte logs whose categorical values are heavily
// skewed — that skew is what causes the contention Fig. 7/8 expose, so the
// synthetic substitute must reproduce it.
type IndexDist interface {
	// Draw returns a row index in [0, m).
	Draw(rng *rand.Rand, m int) int32
	// Name labels the distribution in experiment output.
	Name() string
}

// Uniform draws rows independently and uniformly — the "very little
// contention" regime where all update strategies perform alike.
type Uniform struct{}

// Draw implements IndexDist.
func (Uniform) Draw(rng *rand.Rand, m int) int32 { return int32(rng.Intn(m)) }

// DrawU maps a uniform u ∈ [0, 1) to a row index — the inverse-CDF core of
// Draw, usable with any uniform source (the per-sample counter-based
// streams of the data package feed it without a rand.Rand).
func (Uniform) DrawU(u float64, m int) int32 {
	r := int32(u * float64(m))
	if int(r) >= m {
		r = int32(m - 1)
	}
	return r
}

// Name implements IndexDist.
func (Uniform) Name() string { return "uniform" }

// Zipf draws rows from a Zipf(s) distribution over [0, m): row r has
// probability ∝ 1/(r+1)^s. Criteo-like click logs have s ≈ 1, concentrating
// a large fraction of lookups on a handful of hot rows — the regime where
// atomic and RTM-style updates thrash cache lines across cores and the
// race-free algorithm wins by up to 10×.
type Zipf struct {
	S float64
}

// Draw implements IndexDist using inverse-CDF sampling on a harmonic
// approximation; adequate for workload generation and allocation-free.
func (z Zipf) Draw(rng *rand.Rand, m int) int32 { return z.DrawU(rng.Float64(), m) }

// DrawU maps a uniform u ∈ [0, 1) to a Zipf-distributed row index — the
// inverse-CDF core of Draw, usable with any uniform source. Callers that
// draw many indices from one table keep its Sampler instead.
func (z Zipf) DrawU(u float64, m int) int32 { return z.Sampler(m).DrawU(u) }

// ZipfSampler draws from one Zipf over one table's m rows: everything in
// the inverse CDF that does not depend on the uniform is computed once.
type ZipfSampler struct {
	m    int
	one  bool    // s = 1: x = exp(u·a), a = log(m+1)
	a    float64 // otherwise x = (u·a + 1)^inv, a = (m+1)^(1-s) - 1
	inv  float64 // 1/(1-s)
	fast bool    // |inv| small enough for DrawU's error argument
}

// Sampler returns the sampler for a table of m rows.
func (z Zipf) Sampler(m int) ZipfSampler {
	s := z.S
	if s <= 0 {
		s = 1
	}
	if s == 1 {
		return ZipfSampler{m: m, one: true, a: math.Log(float64(m) + 1)}
	}
	inv := 1 / (1 - s)
	return ZipfSampler{m: m, a: math.Pow(float64(m)+1, 1-s) - 1, inv: inv, fast: math.Abs(inv) <= zipfMaxInv}
}

// zipfGuard and zipfMaxInv carry DrawU's error argument. The row is
// floor(x) - 1 for x = v^inv ∈ [1, m+1), m < 2³¹, so only floor(x) matters.
// DrawU first computes x′ = exp(inv·log v). Take Log and Exp each within
// 1e-15 relative (several ulp; both are tested tighter): |inv·log v| = ln x
// ≤ 21.5, so x′ is within 21.5·(1e-15 + 1.1e-16) + 1e-15 < 2.5e-14 of the
// true power. math.Pow, the definition of the draw, raises a mantissa by
// repeated squaring, which doubles the relative error each time and adds
// half an ulp: within |inv|·2.3e-16 ≤ 2.3e-13 for |inv| ≤ zipfMaxInv. So the
// two differ by less than 2.6e-13·x, and when x′ is farther than zipfGuard·x′
// = 1e-11·x′ (forty times that) from every integer no integer lies between
// them: same floor, same row. Otherwise — about x·2e-11 of the draws — Pow
// decides.
const (
	zipfGuard  = 1e-11
	zipfMaxInv = 1000
)

// DrawU maps a uniform u ∈ [0, 1) to a row in [0, m).
func (z ZipfSampler) DrawU(u float64) int32 {
	var x float64
	if z.one {
		x = math.Exp(u * z.a)
	} else {
		// Inverse CDF of the continuous analogue p(x) ∝ x^-s on [1, m+1).
		v := u*z.a + 1
		x = math.Exp(z.inv * math.Log(v))
		if f := x - math.Floor(x); !(z.fast && f > x*zipfGuard && 1-f > x*zipfGuard) {
			x = math.Pow(v, z.inv)
		}
	}
	r := int32(x) - 1
	if r < 0 {
		r = 0
	}
	if int(r) >= z.m {
		r = int32(z.m - 1)
	}
	return r
}

// Name implements IndexDist.
func (z Zipf) Name() string { return "zipf" }

// HeadMass returns the probability that DrawU lands in the head [0, k) of a
// table with m rows — the analytic hit rate of a cache holding the k
// hottest rows under this skew. It is the CDF of the same continuous
// analogue DrawU inverts (p(x) ∝ x^-s on [1, m+1)), so empirical head
// frequencies converge to it; the tiered-store cost model and the draw-skew
// statistical test both consume it.
func (z Zipf) HeadMass(k, m int) float64 {
	if m <= 0 || k <= 0 {
		return 0
	}
	if k >= m {
		return 1
	}
	s := z.S
	if s <= 0 {
		s = 1
	}
	// P(row < k) = F(k+1) with F the CDF of p(x) ∝ x^-s on [1, m+1).
	if s == 1 {
		return math.Log(float64(k)+1) / math.Log(float64(m)+1)
	}
	hi := math.Pow(float64(m)+1, 1-s)
	return (math.Pow(float64(k)+1, 1-s) - 1) / (hi - 1)
}

// MakeBatch draws a batch of n bags with exactly perBag lookups each from
// dist over a table of m rows. perBag is the paper's P ("average look-ups
// per table", Table I).
func MakeBatch(rng *rand.Rand, dist IndexDist, n, perBag, m int) *Batch {
	b := &Batch{
		Indices: make([]int32, 0, n*perBag),
		Offsets: make([]int32, n+1),
	}
	for bag := 0; bag < n; bag++ {
		b.Offsets[bag] = int32(len(b.Indices))
		for s := 0; s < perBag; s++ {
			b.Indices = append(b.Indices, dist.Draw(rng, m))
		}
	}
	b.Offsets[n] = int32(len(b.Indices))
	return b
}

// MakeVariableBatch draws bags whose sizes vary uniformly in [minPer,
// maxPer], exercising the offset bookkeeping (including empty bags when
// minPer is 0).
func MakeVariableBatch(rng *rand.Rand, dist IndexDist, n, minPer, maxPer, m int) *Batch {
	b := &Batch{Offsets: make([]int32, n+1)}
	for bag := 0; bag < n; bag++ {
		b.Offsets[bag] = int32(len(b.Indices))
		k := minPer
		if maxPer > minPer {
			k += rng.Intn(maxPer - minPer + 1)
		}
		for s := 0; s < k; s++ {
			b.Indices = append(b.Indices, dist.Draw(rng, m))
		}
	}
	b.Offsets[n] = int32(len(b.Indices))
	return b
}
