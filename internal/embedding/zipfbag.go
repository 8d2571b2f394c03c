package embedding

import "math"

// A bag's draws at once. DrawBag resolves the draws whose bucket is decided
// from their slots, as DrawU does, and sends the rest — the formula lanes,
// about a third of the draws at the train-emb shape — through zipfX, which
// computes the formula's x for a whole vector of them: exp(u·a) at s = 1,
// exp(inv·log(u·a + 1)) otherwise, by fdlibm's log and exp. Its AVX-512F and
// AVX2 bodies (zipf_amd64.s) give the bits of its Go body, zipfXGo, the
// oracle they are tested against: both are a fixed sequence of correctly
// rounded adds, multiplies and divides (never a fused multiply-add), exact
// exponent / mantissa splits and exact scalings by powers of two. Machines
// without a vector kernel draw every bag through DrawU, which is faster
// there than the Go body.
//
// fdlibm is within one ulp of the true log and exp, so zipfGuard's argument
// (indices.go) covers these lanes as it covers DrawU's math.Log / math.Exp:
// when x is farther than zipfGuard·x from every integer its floor is DrawU's
// row. Lanes nearer an integer take DrawU's own formula; so does every bag
// shorter than one vector (zipfLanes draws), and a bag's rest from the chunk
// holding a u outside [0, 1), the kernels' domain.

// zipfLanes is the lane count zipfX takes its work in: n is a multiple of it.
const zipfLanes = 8

// bagChunk is how many draws DrawBag resolves per pass; its scratch lives on
// the stack.
const bagChunk = 64

// DrawBag sets dst[i] = DrawU(u[i]) for every i < len(u); dst must be at least
// as long as u. Concurrent calls are safe as DrawU's are.
func (z *ZipfSampler) DrawBag(dst []int32, u []float64) {
	dst = dst[:len(u)]
	if k := kernel; k != nil && len(u) >= zipfLanes && len(z.head) > 0 {
		for len(u) > 0 {
			n := min(len(u), bagChunk)
			if !z.drawChunk(dst[:n], u[:n], k) {
				break
			}
			dst, u = dst[n:], u[n:]
		}
	}
	// Short bags, and from a u outside [0, 1) on, the rest of the bag.
	for i, v := range u {
		dst[i] = z.DrawU(v)
	}
}

// drawChunk is DrawBag over at most bagChunk draws on the vector kernel k,
// for a sampler with a bucket table. It returns false, leaving dst to be
// redrawn, when some u lies outside [0, 1), zipfX's domain. The first
// pass is DrawU's bucket lookup without a branch on its outcome: every u
// reads the slot of its bucket, clamped to the table (a u past the head
// counts as undecided, -1), and every u is appended to us, the formula
// lanes' list, which only grows when the slot is not a row. pos keeps where
// each formula lane goes in dst.
func (z *ZipfSampler) drawChunk(dst []int32, u []float64, k *rowKernel) bool {
	// Lanes of us past n hold zeros or earlier u, in zipfX's domain; their
	// x are never read.
	var us, xs [bagChunk]float64
	var pos [bagChunk]uint8
	last := uint(len(z.head) - 1)
	n := 0
	for i, v := range u {
		if !(v >= 0 && v < 1) {
			return false
		}
		j := uint(int(v * z.buckets))
		jc := min(j, last)
		c := z.head[jc].Load()
		if c == 0 {
			c = z.decide(jc)
		}
		if j > last {
			c = -1
		}
		dst[i] = c - 1
		us[n], pos[n] = v, uint8(i)
		n += int(uint32(c) >> 31)
	}
	if n == 0 {
		return true
	}
	k.zipfX(&xs[0], &us[0], (n+zipfLanes-1)&^(zipfLanes-1), z.a, z.inv, z.one)
	for l, i := range pos[:n] {
		x := xs[l]
		if f := x - math.Floor(x); f > x*zipfGuard && 1-f > x*zipfGuard {
			dst[i] = z.row(x)
		} else {
			dst[i] = z.formula(us[l])
		}
	}
	return true
}

// zipfXGo sets x[i] to the formula's x for u[i], i < len(u): exp(u·a) when
// one, exp(inv·log(u·a + 1)) otherwise. Its domain is u ∈ [0, 1) of a
// sampler: then u·a + 1 is a positive normal number (a ≥ -1) and the
// exponent lies in [-0.01, 22], so fdlibm's special cases other than exp's
// near-zero one never arise.
func zipfXGo(x, u []float64, a, inv float64, one bool) {
	for i, v := range u {
		t := float64(v * a)
		if !one {
			t = float64(inv * logFdlibm(t+1))
		}
		x[i] = expFdlibm(t)
	}
}

// fdlibm's constants, as in Go's math/log.go and math/exp.go.
const (
	ln2Hi    = 6.93147180369123816490e-01 // 3fe62e42 fee00000
	ln2Lo    = 1.90821492927058770002e-10 // 3dea39ef 35793c76
	log2e    = 1.44269504088896338700e+00
	nearZero = 1.0 / (1 << 28)

	logL1 = 6.666666666666735130e-01 // 3FE55555 55555593
	logL2 = 3.999999999940941908e-01 // 3FD99999 9997FA04
	logL3 = 2.857142874366239149e-01 // 3FD24924 94229359
	logL4 = 2.222219843214978396e-01 // 3FCC71C5 1D8E78AF
	logL5 = 1.818357216161805012e-01 // 3FC74664 96CB03DE
	logL6 = 1.531383769920937332e-01 // 3FC39A09 D078C69F
	logL7 = 1.479819860511658591e-01 // 3FC2F112 DF3E5244

	expP1 = 1.66666666666666657415e-01  // 3FC55555 55555555
	expP2 = -2.77777777770155933842e-03 // BF66C16C 16BEBD93
	expP3 = 6.61375632143793436117e-05  // 3F11566A AF25DE2C
	expP4 = -1.65339022054652515390e-06 // BEBBBD41 C5D26BF1
	expP5 = 4.13813679705723846039e-08  // 3E663769 72BEA4D0
)

// logFdlibm is Go's pure-Go math.log (fdlibm's __ieee754_log) for a positive
// normal x. Every product sits in an explicit float64 conversion, which
// keeps the compiler from fusing it into the add that follows: each
// operation rounds once, as in the vector bodies.
func logFdlibm(x float64) float64 {
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))), t2 = s4·(L2 + s4·(L4 + s4·L6))
	t1 := float64(s4 * logL7)
	t1 = float64(s4 * (logL5 + t1))
	t1 = float64(s4 * (logL3 + t1))
	t1 = float64(s2 * (logL1 + t1))
	t2 := float64(s4 * logL6)
	t2 = float64(s4 * (logL4 + t2))
	t2 = float64(s4 * (logL2 + t2))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

// expFdlibm is Go's pure-Go math.exp (fdlibm's __ieee754_exp) for |x| below
// its overflow and underflow thresholds; products are rounded as in
// logFdlibm. k = int(log2e·x ± 0.5) is computed as the truncation of that
// sum, and the final Ldexp scales a normal y by 2^k exactly.
func expFdlibm(x float64) float64 {
	if -nearZero < x && x < nearZero {
		return 1 + x
	}
	h := 0.5
	if x < 0 {
		h = -0.5
	}
	k := math.Trunc(float64(log2e*x) + h)
	hi := x - float64(k*ln2Hi)
	lo := float64(k * ln2Lo)

	r := hi - lo
	t := float64(r * r)
	// c = r - t·(P1 + t·(P2 + t·(P3 + t·(P4 + t·P5))))
	p := float64(t * expP5)
	p = float64(t * (expP4 + p))
	p = float64(t * (expP3 + p))
	p = float64(t * (expP2 + p))
	p = float64(t * (expP1 + p))
	c := r - p
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, int(k))
}
