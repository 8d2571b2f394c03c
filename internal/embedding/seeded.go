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
	fillSeeded(t.W, seed, scale)
	return t
}

// fillSeeded sets w to the floats NewTableSeeded draws for seed.
func fillSeeded(w []float32, seed int64, scale float32) {
	var s lfStream
	s.start(rand.NewSource(seed).(rand.Source64))
	s.fill(w, scale)
}

const (
	lfLag   = 607         // math/rand's rngLen: the long lag
	lfTap   = 273         // math/rand's rngTap: the short lag
	lfBlock = 4*lfTap + 4 // a multiple of lfLanes, so the kernels take a whole block
	// lfLanes is the vector kernels' step: they take outputs in multiples
	// of it.
	lfLanes = 8
)

// lfStream continues a math/rand source's output stream. buf holds lfLag
// outputs followed by a block extended from them by the recurrence, with no
// interface call and no modulo index: every output reads values lfLag and
// lfTap places before it. buf[:end] is drawn, and buf[pos:end] is drawn but
// not yet handed out. After start, pos is 0, where the source's own outputs
// are still to be handed out; when the block is used up, the newest lfLag
// outputs move to the front and pos = end = lfLag.
type lfStream struct {
	buf [lfLag + lfBlock]uint64
	pos int // next output to hand out
	end int // end of the drawn outputs
}

// start takes src's next lfLag outputs, to hand out src's stream from there.
func (s *lfStream) start(src rand.Source64) {
	for i := range lfLag {
		s.buf[i] = src.Uint64()
	}
	s.pos, s.end = 0, lfLag
}

// generate draws the next n outputs from the recurrence.
func (s *lfStream) generate(n int) {
	out := s.buf[s.end : s.end+n]
	// Views of the same length, so the loop has no bounds check; tap
	// overlaps out once n > lfTap, and reads what the loop wrote.
	old, tap := s.buf[s.end-lfLag:][:n], s.buf[s.end-lfTap:][:n]
	for i := range out {
		out[i] = old[i] + tap[i]
	}
	s.end += n
}

// fill sets w[i] = (u*2 - 1) * scale for successive u drawn exactly as
// rand.Rand.Float32 draws them: Int63 (the output's low 63 bits) over 2⁶³ in
// float64, drawing again on 1; then rounded to float32, drawing again on 1.
// A float64 of 1 rounds to a float32 of 1, so one test covers both retries,
// and each retry consumes one output.
//
// On a vector kernel, whole vectors of lfLanes outputs are drawn and
// converted in one pass (lfFill*, seeded_amd64.s). The Go body below is the
// oracle and takes what the kernel leaves: the source's own lfLag outputs, a
// vector holding a 1 (about 3·10⁻⁸ of draws), the block's last few outputs
// and w's last few floats.
func (s *lfStream) fill(w []float32, scale float32) {
	k := kernel
	for i := 0; i < len(w); {
		if s.pos == len(s.buf) {
			copy(s.buf[:lfLag], s.buf[lfBlock:])
			s.pos, s.end = lfLag, lfLag
		}
		if s.pos == s.end {
			n := len(s.buf) - s.end // the Go body draws the rest of the block
			if k != nil {
				if v := min(n, len(w)-i) &^ (lfLanes - 1); v > 0 {
					d := k.lfFill(&s.buf[s.end], &w[i], v, scale)
					s.pos += d
					s.end += d
					i += d
					if d == v {
						continue
					}
				}
				// A vector holding a 1, or fewer than lfLanes floats or
				// outputs left: the Go body takes the next vector.
				n = min(len(s.buf)-s.end, lfLanes)
			}
			s.generate(n)
		}
		// Every float takes at least one output, so this never overdraws.
		out := s.buf[s.pos:s.end]
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
