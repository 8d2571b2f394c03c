package embedding

import (
	"math"
	"math/rand"
	"sync/atomic"
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
// draw many indices from one table keep its Sampler instead: this one-shot
// form builds no bucket table and allocates nothing.
func (z Zipf) DrawU(u float64, m int) int32 {
	d := z.sampler(m)
	return d.DrawU(u)
}

// ZipfSampler draws from one Zipf over one table's m rows: everything in
// the inverse CDF that does not depend on the uniform is computed once, and
// the rows of the table's head are looked up by bucket of u (see DrawU).
// Copies share the bucket table.
type ZipfSampler struct {
	m    int
	one  bool    // s = 1: x = exp(u·a), a = log(m+1)
	a    float64 // otherwise x = (u·a + 1)^inv, a = (m+1)^(1-s) - 1
	inv  float64 // 1/(1-s)
	fast bool    // the draw's error argument covers it: s = 1 or |inv| ≤ zipfMaxInv

	// u ∈ [0, 1) lies in bucket ⌊u·buckets⌋. head[j] is bucket j's row + 1
	// once some draw has decided the bucket, -1 if the bucket may hold
	// more than one row, 0 before. Only the head buckets have a slot.
	buckets float64
	head    []atomic.Int32
}

// zipfMaxBuckets caps a table's bucket count, which is otherwise the power
// of two ≥ 4m: about four buckets per row, so tiny tables get tiny tables.
const zipfMaxBuckets = 1 << 16

// Sampler returns the sampler for a table of m rows. Its bucket table covers
// the head: the buckets up to the first row whose share of u is less than
// two buckets (past it most buckets straddle a row boundary). The slots are
// allocated here and filled by the draws that land in them, so building a
// sampler costs no draws.
func (z Zipf) Sampler(m int) ZipfSampler {
	d := z.sampler(m)
	if !d.fast || m < 1 {
		return d
	}
	b := 1
	for b < 4*m && b < zipfMaxBuckets {
		b <<= 1
	}
	// The head ends at x_h, where the density of the continuous analogue
	// (the CDF F that DrawU inverts) is 2/b; slots end at bucket F(x_h)·b.
	// The bound is only a size: every bucket is decided exactly.
	var uh float64
	if d.one {
		xh := float64(b) / (2 * d.a) // F′(x) = 1/(a·x)
		uh = math.Log(min(xh, float64(m)+1)) / d.a
	} else {
		s := 1 - 1/d.inv // F′(x) = x^-s / (inv·a)
		xh := math.Pow(float64(b)/(2*d.inv*d.a), 1/s)
		uh = (math.Pow(min(xh, float64(m)+1), 1/d.inv) - 1) / d.a
	}
	if n := math.Ceil(uh * float64(b)); n >= 1 {
		d.buckets = float64(b)
		d.head = make([]atomic.Int32, int(min(n, float64(b))))
	}
	return d
}

// sampler returns the table-less sampler: the constants of the inverse CDF.
func (z Zipf) sampler(m int) ZipfSampler {
	s := z.S
	if s <= 0 {
		s = 1
	}
	if s == 1 {
		return ZipfSampler{m: m, one: true, a: math.Log(float64(m) + 1), fast: true}
	}
	inv := 1 / (1 - s)
	return ZipfSampler{m: m, a: math.Pow(float64(m)+1, 1-s) - 1, inv: inv, fast: math.Abs(inv) <= zipfMaxInv}
}

// zipfGuard and zipfMaxInv carry the draw's error argument. The row is
// floor(x) - 1 for x = v^inv ∈ [1, m+1), m < 2³¹, so only floor(x) matters.
// The draw first computes x′ = exp(inv·log v). Take Log and Exp each within
// 1e-15 relative (several ulp; both are tested tighter): |inv·log v| = ln x
// ≤ 21.5, so x′ is within 21.5·(1e-15 + 1.1e-16) + 1e-15 < 2.5e-14 of the
// true power. math.Pow, the definition of the draw, raises a mantissa by
// repeated squaring, which doubles the relative error each time and adds
// half an ulp: within |inv|·2.3e-16 ≤ 2.3e-13 for |inv| ≤ zipfMaxInv. So the
// two differ by less than 2.6e-13·x, and when x′ is farther than zipfGuard·x′
// = 1e-11·x′ (forty times that) from every integer no integer lies between
// them: same floor, same row. Otherwise — about x·2e-11 of the draws — Pow
// decides.
//
// Log and Exp are math.Log and math.Exp in DrawU and decide, and fdlibm's
// log and exp in DrawBag's formula lanes: zipfXGo and its AVX-512 and AVX2
// bodies in zipf_amd64.s, which give its bits. Each is within one ulp, so
// the argument covers either, and a lane passing the guard has DrawU's row.
// At s = 1 DrawU floors math.Exp(u·a) unguarded; DrawBag guards those lanes
// too: fdlibm's exp of the same u·a is within two ulp of it, so when it is
// farther than zipfGuard·x from every integer both have one floor. A lane
// that fails the guard takes DrawU's formula.
const (
	zipfGuard  = 1e-11
	zipfMaxInv = 1000
)

// DrawU maps a uniform u ∈ [0, 1) to a row in [0, m): from u's bucket slot
// when the bucket has been decided to one row, else by the formula.
//
// Why a bucket may be decided once for every u in it. v = u·a + 1 is
// computed with two correctly rounded operations, each monotone, so v never
// decreases in u when a > 0 and never increases when a < 0 — where inv < 0
// as well — and the true power P = v^inv never decreases in u; for s = 1,
// u·a rounds monotonically and exp increases. The fast formula and math.Pow
// are each within 2.6e-13·P of P (the argument above), whichever one the
// draw takes. So take a bucket's edges u0 < u1 (u1 is just past its last
// u) and their fast values x0, x1: for u in the bucket the draw's x lies
// within 2.6e-13·P(u) of P(u) ∈ [P(u0), P(u1)], hence inside
// [x0 − zipfGuard·x0, x1 + zipfGuard·x1]. Flooring and clamping are
// monotone, so when both ends of that range give one row, every u in the
// bucket draws that row, on either path. Otherwise the slot says -1 and the
// bucket's draws go through the formula. Samplers the argument does not
// cover (fast false) get no table.
//
// Slots are written by the first draw that needs them. Concurrent draws race
// benignly: every writer stores the same value, atomically.
func (z *ZipfSampler) DrawU(u float64) int32 {
	if j := uint(int(u * z.buckets)); u >= 0 && j < uint(len(z.head)) {
		c := z.head[j].Load()
		if c == 0 {
			c = z.decide(j)
		}
		if c > 0 {
			return c - 1
		}
	}
	return z.formula(u)
}

// formula is DrawU's row for a u its bucket table does not decide.
func (z *ZipfSampler) formula(u float64) int32 {
	x := z.fastX(u)
	if !z.one {
		if f := x - math.Floor(x); !(z.fast && f > x*zipfGuard && 1-f > x*zipfGuard) {
			x = math.Pow(u*z.a+1, z.inv)
		}
	}
	return z.row(x)
}

// decide works out head bucket j's slot value by the argument above, stores
// it and returns it.
func (z *ZipfSampler) decide(j uint) int32 {
	lo, hi := z.fastX(float64(j)/z.buckets), z.fastX(float64(j+1)/z.buckets)
	c := int32(-1)
	if r := z.row(lo - lo*zipfGuard); r == z.row(hi+hi*zipfGuard) {
		c = r + 1
	}
	z.head[j].Store(c)
	return c
}

// fastX is the inverse CDF of the continuous analogue p(x) ∝ x^-s on
// [1, m+1) by exp and log: x = exp(u·a) for s = 1, exp(inv·log v) otherwise.
func (z *ZipfSampler) fastX(u float64) float64 {
	if z.one {
		return math.Exp(u * z.a)
	}
	return math.Exp(z.inv * math.Log(u*z.a+1))
}

// row maps x to its row, floor(x) − 1 clamped to [0, m).
func (z *ZipfSampler) row(x float64) int32 {
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
