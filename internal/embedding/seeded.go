package embedding

import "math/rand"

// NewTableSeeded returns, bit for bit, what
// NewTable(m, e, rand.New(rand.NewSource(seed)), scale) returns, without a
// call through rand.Rand per float.
//
// A seeded math/rand (v1) source is an additive lagged-Fibonacci generator:
// its outputs satisfy x[n] = x[n-607] + x[n-273] (mod 2⁶⁴), and Go does not
// change a seeded stream. The first 607 outputs come from the real source, so
// the seeding is inherited rather than re-implemented; the rest follow from
// the recurrence (see lfStream).
func NewTableSeeded(m, e int, seed int64, scale float32) *Table {
	t := &Table{M: m, E: e, W: make([]float32, m*e)}
	var s lfStream
	s.start(rand.NewSource(seed).(rand.Source64))
	s.fill(t.W, scale)
	return t
}

const (
	lfLag   = 607 // math/rand's rngLen: the long lag
	lfTap   = 273 // math/rand's rngTap: the short lag
	lfBlock = 4 * lfTap
)

// lfStream continues a math/rand source's output stream. buf holds lfLag
// outputs followed by the block generated from them, with no interface call
// and no modulo index: within a run of lfTap outputs no output depends on
// another, and every later one reads a value written lfTap places earlier.
// pos starts at 0, where the source's own outputs are still to be handed
// out, and at lfLag after each refill, which moves the newest lfLag outputs
// to the front.
type lfStream struct {
	buf [lfLag + lfBlock]uint64
	pos int // next output to hand out
}

// start takes src's next lfLag outputs, to hand out src's stream from there.
func (s *lfStream) start(src rand.Source64) {
	for i := range lfLag {
		s.buf[i] = src.Uint64()
	}
	s.generate()
}

// generate fills the block after the history from the recurrence.
func (s *lfStream) generate() {
	for i := lfLag; i < len(s.buf); i++ {
		s.buf[i] = s.buf[i-lfLag] + s.buf[i-lfTap]
	}
}

// fill sets w[i] = (u*2 - 1) * scale for successive u drawn exactly as
// rand.Rand.Float32 draws them: Int63 (the output's low 63 bits) over 2⁶³ in
// float64, drawing again on 1; then rounded to float32, drawing again on 1.
// A float64 of 1 rounds to a float32 of 1, so one test covers both retries,
// and each retry consumes one output.
func (s *lfStream) fill(w []float32, scale float32) {
	for i := 0; i < len(w); {
		if s.pos == len(s.buf) {
			copy(s.buf[:lfLag], s.buf[lfBlock:])
			s.generate()
			s.pos = lfLag
		}
		// Every float takes at least one output, so this never overdraws.
		out := s.buf[s.pos:]
		if len(out) > len(w)-i {
			out = out[:len(w)-i]
		}
		s.pos += len(out)
		for _, x := range out {
			u := float32(float64(int64(x&(1<<63-1))) / (1 << 63))
			if u == 1 {
				continue
			}
			w[i] = (u*2 - 1) * scale
			i++
		}
	}
}
