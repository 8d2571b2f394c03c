package data

import (
	"math"

	"repro/internal/rng"
)

// Per-sample counter-based random streams.
//
// The original generators drew one sequential rand.Rand stream per batch,
// which forces whoever wants sample s to first generate samples 0..s-1 —
// exactly the "every rank reads the full global minibatch" access pattern
// of the §VI-D2 loader artifact. Sharded loading needs random access: rank
// r must materialize samples [r·N/R, (r+1)·N/R) — and, for the tables it
// owns under model parallelism, one table's column over ALL samples —
// without touching the rest. So every (batch, sample) and every (batch,
// sample, table) pair keys its own rng.Stream, derived purely from the
// dataset seed and those coordinates (a rand.Rand would cost an allocation
// and a ~2 KiB reseed per sample). Streams are value types on the caller's
// stack: generation performs no heap allocation and is safe for concurrent
// fills of distinct buffers.
type sampleRNG struct {
	rng.Stream
}

// streamSeed keys a stream by the dataset seed, a stream tag and two
// coordinates.
func streamSeed(seed int64, tag uint64, batch, sub int) sampleRNG {
	return sampleRNG{rng.Stream(uint64(seed)).Key(tag).Key(uint64(batch) * rng.Spread1).Key(uint64(sub) * rng.Spread2)}
}

// sampleStream returns the stream for sample `sample` of batch `batch`
// (dense features and the label draw).
func sampleStream(seed int64, tag uint64, batch, sample int) sampleRNG {
	return streamSeed(seed, tag, batch, sample)
}

// tableStream returns the stream for table t's lookups of sample `sample`
// of batch `batch` — independent of sampleStream so a table column can be
// regenerated on its own.
func tableStream(seed int64, tag uint64, batch, sample, t int) sampleRNG {
	return streamSeed(seed, tag^(0x9E3779B97F4A7C15*uint64(t+1)), batch, sample)
}

// Stream tags keep the datasets' draws disjoint even under equal seeds.
const (
	randomTag   = 0x52414E44 // "RAND"
	clickTag    = 0x434C4943 // "CLIC"
	clickLblTag = 0x4C41424C // "LABL"
	reqTag      = 0x52455155 // "REQU" — request→entity draws
	reqProfTag  = 0x50524F46 // "PROF" — entity profiles (rows, dense)
	reqLblTag   = 0x524C424C // "RLBL" — request label draws
)

// f32 returns a uniform float32 in [0, 1).
func (g *sampleRNG) f32() float32 {
	return float32(g.Next()>>40) / (1 << 24)
}

// norm returns a standard normal via Box-Muller (two uniforms per call; the
// second root is discarded to keep the stream's draw count fixed per call).
func (g *sampleRNG) norm() float64 {
	u1 := g.Float64()
	u2 := g.Float64()
	return math.Sqrt(-2*math.Log(u1+1e-300)) * math.Cos(2*math.Pi*u2)
}
