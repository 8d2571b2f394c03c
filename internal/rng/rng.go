// Package rng is the one counter-keyed random generator every package
// draws from: splitmix64, whose whole state is a uint64 that each draw
// advances by a fixed odd constant. A stream is a value keyed from the
// coordinates of what it draws for (a seed, a batch, a sample, an
// iteration), never threaded through a run, so any draw can be made without
// the ones before it, concurrently and without allocation — and a dataset,
// a churn schedule or an arrival stream is a pure function of its
// coordinates. It passes BigCrush.
package rng

// Stream is a splitmix64 state.
type Stream uint64

// Next advances the stream and returns its next 64-bit output.
func (g *Stream) Next() uint64 {
	*g += 0x9E3779B97F4A7C15
	z := uint64(*g)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns the top 53 bits of the next output as a uniform float64
// in [0, 1).
func (g *Stream) Float64() float64 { return float64(g.Next()>>11) / (1 << 53) }

// Key returns the stream keyed by one more coordinate c: c is xor'd into the
// state and one output is drawn and dropped, so streams keyed by nearby
// coordinates start in unrelated states.
func (g Stream) Key(c uint64) Stream {
	g ^= Stream(c)
	g.Next()
	return g
}

// Mix returns the first output of the stream at state x.
func Mix(x uint64) uint64 {
	g := Stream(x)
	return g.Next()
}

// Spread1 and Spread2 are odd multipliers that spread a small coordinate (an
// index, a counter) over all 64 bits before Key takes it.
const (
	Spread1 uint64 = 0x5851F42D4C957F2D
	Spread2 uint64 = 0xDA942042E4DD58B5
)
