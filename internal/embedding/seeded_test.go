package embedding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
)

// TestNewTableSeededEqualsNewTable holds the fast build to NewTable over a
// rand.Rand seeded the same way: every float bit for bit, on shapes that end
// inside the first 607 draws, on a block boundary and several blocks in.
func TestNewTableSeededEqualsNewTable(t *testing.T) {
	shapes := [][2]int{{1, 1}, {3, 5}, {lfLag, 1}, {lfLag + lfBlock, 1}, {1, lfLag + lfBlock + 1}, {1000, 64}, {4099, 7}}
	for _, seed := range []int64{0, 1, -7, 1 << 40, math.MaxInt64, math.MinInt64} {
		for _, sh := range shapes {
			m, e := sh[0], sh[1]
			want := NewTable(m, e, rand.New(rand.NewSource(seed)), 0.125)
			got := NewTableSeeded(m, e, seed, 0.125)
			if got.M != m || got.E != e {
				t.Fatalf("seed %d, %d×%d: shape %d×%d", seed, m, e, got.M, got.E)
			}
			if i := sameBits(got.W, want.W); i >= 0 {
				t.Fatalf("seed %d, %d×%d: float %d is %v, NewTable drew %v", seed, m, e, i, got.W[i], want.W[i])
			}
		}
	}
}

// scripted is a rand.Source64 that hands out a fixed list of outputs, then
// zeros.
type scripted struct {
	out []uint64
	n   int
}

func (s *scripted) Uint64() uint64 {
	if s.n >= len(s.out) {
		return 0
	}
	s.n++
	return s.out[s.n-1]
}
func (s *scripted) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *scripted) Seed(int64)   {}

// TestFloat32RetriesLikeRand scripts both of rand.Rand.Float32's retry
// branches — an Int63 so close to 2⁶³ that the float64 rounds to 1, and one
// whose float64 is below 1 but rounds to 1 in float32 — and checks that the
// stream's conversion yields the same floats from the same outputs. Random
// seeds reach the float32 branch about once in 3·10⁷ draws, so only a script
// covers it.
func TestFloat32RetriesLikeRand(t *testing.T) {
	const (
		f64One = 1<<63 - 1     // float64(x) / 2⁶³ rounds to 1
		f32One = 1<<63 - 1<<20 // 1 - 2⁻⁴³ in float64, 1 in float32
		f32Max = 1<<63 - 1<<39 // 1 - 2⁻²⁴ in float64: float32's largest value below 1
		top    = 1 << 63       // the bit Int63 drops
		mid    = 0x2545f4914f6cdd1d
	)
	script := []uint64{
		f64One, mid,
		f32One, mid + 1,
		f64One, f32One, top | f64One, top | f32One, f32Max,
		top | mid, 0,
		f32One, f32One, f64One, 3 << 61,
	}
	src := &scripted{out: script}
	ref := rand.New(src)
	var s lfStream
	s.start(&scripted{out: script})
	var got [1]float32
	for i := 0; i < 6; i++ { // the script holds six draws
		want := ref.Float32()*2 - 1
		if s.fill(got[:], 1); math.Float32bits(got[0]) != math.Float32bits(want) {
			t.Fatalf("draw %d: %v, rand.Rand.Float32()*2 - 1 gave %v", i, got[0], want)
		}
		if s.pos != src.n {
			t.Fatalf("draw %d: the stream consumed %d outputs, rand.Rand.Float32 %d", i, s.pos, src.n)
		}
	}
	if src.n != len(script) {
		t.Fatalf("six draws consumed %d of the script's %d outputs", src.n, len(script))
	}
}

// FuzzSeededFillVsGo holds each vector body of lfStream.fill to the Go
// body: the same floats bit for bit and the same outputs consumed, over two
// fills in a row from one state. The state is a random history whose last
// skip words are still to be handed out; near of its words, and near of the
// first block's outputs (set through the history words they add), sit at a
// conversion's edge (boundaryWord). The lengths run from 0 to a few blocks.
func FuzzSeededFillVsGo(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(4096), uint16(4096), uint8(0))
	f.Add(uint64(2), uint16(0), uint16(8200), uint16(13), uint8(40))
	f.Add(uint64(3), uint16(5), uint16(7), uint16(12289), uint8(255))
	f.Add(uint64(4), uint16(606), uint16(1234), uint16(0), uint8(90))
	f.Add(uint64(5), uint16(100), uint16(0), uint16(3001), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, skip, n1, n2 uint16, near uint8) {
		if len(kernels) == 0 {
			t.Skip("no vector kernel on this machine")
		}
		start := seededState(seed, int(skip)%lfLag, int(near))
		lens := []int{int(n1) % (3*lfBlock + lfLag), int(n2) % (3*lfBlock + lfLag)}
		want, wantPos := seededFills(t, nil, start, lens)
		for _, k := range kernels {
			got, gotPos := seededFills(t, k, start, lens)
			for j := range lens {
				if i := sameBits(got[j], want[j]); i >= 0 {
					t.Fatalf("%s, fill %d of %v: float %d is %v, the Go body drew %v", k.isa, j, lens, i, got[j][i], want[j][i])
				}
				if gotPos[j] != wantPos[j] {
					t.Fatalf("%s, fill %d of %v: consumed up to %d, the Go body to %d", k.isa, j, lens, gotPos[j], wantPos[j])
				}
			}
		}
	})
}

// seededFills runs one fill per length on kernel k (nil = Go body) from a
// copy of start, returning the floats and the stream position after each.
func seededFills(t testing.TB, k *rowKernel, start *lfStream, lens []int) ([][]float32, []int) {
	s := *start
	ws, pos := make([][]float32, len(lens)), make([]int, len(lens))
	withKernel(t, k, func() {
		for j, n := range lens {
			ws[j] = make([]float32, n)
			s.fill(ws[j], 0.125)
			pos[j] = s.pos
		}
	})
	return ws, pos
}

// seededState returns a stream after a refill whose history comes from
// seed, with its last skip words still to be handed out, near of those and
// near outputs of the first block at a conversion's edge.
func seededState(seed uint64, skip, near int) *lfStream {
	g := rng.Stream(seed)
	s := &lfStream{pos: lfLag - skip, end: lfLag}
	for i := range lfLag {
		s.buf[i] = g.Next()
	}
	for range near {
		// Output lfLag + j of the first block, j < lfTap, is
		// buf[j] + buf[j + lfLag - lfTap], two history words.
		j := int(g.Next() % lfTap)
		s.buf[j] = boundaryWord(&g) - s.buf[j+lfLag-lfTap]
		if skip > 0 {
			s.buf[lfLag-1-int(g.Next()%uint64(skip))] = boundaryWord(&g)
		}
	}
	return s
}

// boundaryWord draws a word whose low 63 bits sit at an edge of the float
// conversion, its top bit (which Int63 drops) at random: within 2³⁹ of 2⁶³,
// where float32 rounds to 1 from 2⁶³ − 2³⁸ − 2⁹ on; within 2 of that
// threshold; or a float64 rounding tie at a random magnitude.
func boundaryWord(g *rng.Stream) uint64 {
	const threshold = 1<<63 - 1<<38 - 1<<9
	r, top := g.Next(), g.Next()&(1<<63)
	switch r % 4 {
	case 0, 1:
		return top | (1<<63 - 1 - r>>2&(1<<39-1))
	case 2:
		return top | (threshold - 2 + r>>2%5)
	}
	k := 53 + int(r>>2%10) // the leading bit: 2⁵³ .. 2⁶²
	x := (r>>12)&(1<<k-1) | 1<<k
	half := uint64(1) << (k - 53) // half the float64 spacing at 2ᵏ
	return top | x&^(2*half-1) | half
}

// BenchmarkNewTableSeeded builds a train-emb table (250 000 × 64) with
// NewTable over a seeded rand.Rand, then with NewTableSeeded on the Go body
// and on each vector body: into a fresh allocation (fresh) and refilling one
// already touched (touched, fillSeeded). All in ns per float.
func BenchmarkNewTableSeeded(b *testing.B) {
	const m, e = 250_000, 64
	perFloat := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(m*e), "ns/float")
	}
	b.Run("NewTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewTable(m, e, rand.New(rand.NewSource(int64(i))), 0.125)
		}
		perFloat(b)
	})
	w := make([]float32, m*e)
	for _, k := range everyKernel {
		name := "go"
		if k != nil {
			name = k.isa
		}
		b.Run(name+"/fresh", func(b *testing.B) {
			withKernel(b, k, func() {
				for i := 0; i < b.N; i++ {
					NewTableSeeded(m, e, int64(i), 0.125)
				}
			})
			perFloat(b)
		})
		b.Run(name+"/touched", func(b *testing.B) {
			withKernel(b, k, func() {
				for i := 0; i < b.N; i++ {
					fillSeeded(w, int64(i), 0.125)
				}
			})
			perFloat(b)
		})
	}
}
