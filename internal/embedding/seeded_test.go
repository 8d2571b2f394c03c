package embedding

import (
	"math"
	"math/rand"
	"testing"
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

// BenchmarkNewTableSeeded builds a train-emb table (250 000 × 64) with
// NewTable over a seeded rand.Rand and with NewTableSeeded, in ns per float.
func BenchmarkNewTableSeeded(b *testing.B) {
	const m, e = 250_000, 64
	builds := []struct {
		name  string
		build func(seed int64) *Table
	}{
		{"NewTable", func(seed int64) *Table { return NewTable(m, e, rand.New(rand.NewSource(seed)), 0.125) }},
		{"NewTableSeeded", func(seed int64) *Table { return NewTableSeeded(m, e, seed, 0.125) }},
	}
	for _, bl := range builds {
		b.Run(bl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bl.build(int64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(m*e), "ns/float")
		})
	}
}
