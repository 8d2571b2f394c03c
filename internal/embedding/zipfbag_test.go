package embedding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// bagSkews are the exponents the bag tests draw at: both sides of s = 1, the
// s = 1 formula itself, click-log skew, 0.999 (|inv| a hair under
// zipfMaxInv: the largest exponent the error argument covers) and 0.9995,
// which it does not cover, so the sampler has no bucket table and DrawBag
// keeps the per-draw path.
var bagSkews = []float64{0.5, 0.999, 0.9995, 1, 1.05, 2}

// bagRows are table sizes from the degenerate to the largest Criteo table.
var bagRows = []int{1, 3, 17, 1000, 38_949, 250_000, 39_884_406}

// zipfThreshold returns the u at which the continuous draw of a Zipf(s)
// over m rows reaches x = k: the CDF of p(x) ∝ x^-s on [1, m+1).
func zipfThreshold(s float64, m, k int) float64 {
	if s == 1 {
		return math.Log(float64(k)) / math.Log(float64(m)+1)
	}
	return (math.Pow(float64(k), 1-s) - 1) / (math.Pow(float64(m)+1, 1-s) - 1)
}

// nudge moves u by d ulp (toward 1 for d > 0), keeping it in [0, 1).
func nudge(u float64, d int) float64 {
	for ; d > 0; d-- {
		u = math.Nextafter(u, 2)
	}
	for ; d < 0; d++ {
		u = math.Nextafter(u, -1)
	}
	return min(max(u, 0), math.Nextafter(1, 0))
}

// bagUniforms returns n uniforms in [0, 1) for sampler z of a Zipf(s) over m
// rows, picked by the stream seeded with seed: 0, 1 − 2⁻⁵³, bucket edges and
// row thresholds a few ulp either way, and raw 53-bit uniforms.
func bagUniforms(z *ZipfSampler, s float64, m, n int, seed uint64) []float64 {
	g := rng.Stream(seed)
	u := make([]float64, n)
	for i := range u {
		r := g.Next()
		d := int(r>>60) - 8 // −8 .. 7 ulp
		switch r & 7 {
		case 0:
			u[i] = 0
		case 1:
			u[i] = math.Nextafter(1, 0)
		case 2:
			if z.head != nil {
				u[i] = nudge(float64((r>>8)%uint64(len(z.head)+1))/z.buckets, d)
				break
			}
			fallthrough
		case 3:
			u[i] = nudge(zipfThreshold(s, m, 1+int((r>>8)%uint64(m+1))), d)
		default:
			u[i] = float64(r>>11) / (1 << 53)
		}
	}
	return u
}

// checkBag holds DrawBag over u to DrawU row for row, under the kernel in
// force. DrawU runs on a sampler of its own, so the bag's sampler meets u
// with every slot cold, or with the slots u lands in decided first (warm).
func checkBag(t *testing.T, s float64, m int, u []float64, warm bool) {
	t.Helper()
	z, ref := Zipf{S: s}.Sampler(m), Zipf{S: s}.Sampler(m)
	if warm {
		for _, v := range u {
			z.DrawU(v)
		}
	}
	got := make([]int32, len(u))
	z.DrawBag(got, u)
	for i, v := range u {
		if want := ref.DrawU(v); got[i] != want {
			t.Fatalf("%s s=%v m=%d warm=%v: u[%d]=%v (%#x): DrawBag row %d, DrawU row %d",
				KernelISA(), s, m, warm, i, v, math.Float64bits(v), got[i], want)
		}
	}
}

// checkBagX holds each vector body of zipfX to zipfXGo bit for bit over u
// (padded to whole vectors with zeros), and zipfXGo to the exp / log
// DrawU's formula takes within 1e-15 relative — the accuracy zipfGuard's
// argument assumes.
func checkBagX(t *testing.T, s float64, m int, u []float64) {
	t.Helper()
	z := Zipf{S: s}.sampler(m)
	n := (len(u) + zipfLanes - 1) &^ (zipfLanes - 1)
	us := make([]float64, n)
	copy(us, u)
	want := make([]float64, n)
	zipfXGo(want, us, z.a, z.inv, z.one)
	for i, v := range us {
		if x := z.fastX(v); math.Abs(want[i]-x) > 1e-15*x {
			t.Fatalf("s=%v m=%d u=%v: fdlibm x %v, math.Exp / Log x %v", s, m, v, want[i], x)
		}
	}
	for _, k := range kernels {
		got := make([]float64, n)
		k.zipfX(&got[0], &us[0], n, z.a, z.inv, z.one)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s s=%v m=%d u=%v (%#x): zipfX %v (%#x), Go body %v (%#x)", k.isa, s, m, us[i],
					math.Float64bits(us[i]), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestBagEqualsDrawU holds DrawBag to DrawU on the Go bodies and on every
// vector kernel, cold and warm, over every (s, m) of bagSkews × bagRows,
// at bag lengths from under one vector to several chunks; and each zipfX
// body to zipfXGo bit for bit on the same uniforms.
func TestBagEqualsDrawU(t *testing.T) {
	seed := uint64(0)
	for _, s := range bagSkews {
		for _, m := range bagRows {
			t.Run(fmt.Sprintf("s=%v,m=%d", s, m), func(t *testing.T) {
				for _, n := range []int{1, 7, 8, 13, 50, 64, 65, 130, 4096} {
					seed++
					z := Zipf{S: s}.Sampler(m)
					u := bagUniforms(&z, s, m, n, seed)
					checkBagX(t, s, m, u)
					for _, k := range everyKernel {
						withKernel(t, k, func() {
							checkBag(t, s, m, u, false)
							checkBag(t, s, m, u, true)
						})
					}
				}
			})
		}
	}
}

// TestBagOutsideUnitInterval: a u outside [0, 1) — which no dataset draws —
// sends its chunk and the rest of the bag down DrawU's path, so DrawBag still
// equals DrawU row for row.
func TestBagOutsideUnitInterval(t *testing.T) {
	for _, bad := range []float64{1, 1.5, -0.25, math.Inf(1), math.NaN()} {
		for _, at := range []int{0, 20, 70, 99} {
			z := Zipf{S: 1.05}.Sampler(250_000)
			u := bagUniforms(&z, 1.05, 250_000, 100, uint64(at))
			u[at] = bad
			for _, k := range everyKernel {
				withKernel(t, k, func() { checkBag(t, 1.05, 250_000, u, false) })
			}
		}
	}
}

// FuzzBagVsDrawU is TestBagEqualsDrawU at random: the skew from bagSkews,
// m in [1, 4·10⁷], a bag of 1..130 uniforms from the seed, cold or warm.
func FuzzBagVsDrawU(f *testing.F) {
	f.Add(uint8(3), uint32(250_000), uint8(50), uint64(1), false)
	f.Add(uint8(2), uint32(39_884_406), uint8(13), uint64(2), true)
	f.Add(uint8(0), uint32(3), uint8(130), uint64(3), false)
	f.Add(uint8(4), uint32(1), uint8(8), uint64(4), true)
	f.Add(uint8(1), uint32(1000), uint8(64), uint64(5), false)
	f.Fuzz(func(t *testing.T, si uint8, mm uint32, nn uint8, seed uint64, warm bool) {
		s := bagSkews[int(si)%len(bagSkews)]
		m := 1 + int(mm%40_000_000)
		n := 1 + int(nn%130)
		z := Zipf{S: s}.Sampler(m)
		u := bagUniforms(&z, s, m, n, seed)
		checkBagX(t, s, m, u)
		for _, k := range everyKernel {
			withKernel(t, k, func() { checkBag(t, s, m, u, warm) })
		}
	})
}
