package data

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/rng"
)

// teacher is the generator ClickLog and RequestLog share: per-table Zipf
// samplers for the bags, and the logistic labeller over dense features and
// latent per-row scores. A dataset builds it once, at its first fill, from
// the values its exported fields hold then; every fill reads only the
// teacher, so samplers, cached scores and parameters cannot disagree. After
// that it is shared by concurrent fills and never written, except for the
// write-once head-score entries and the samplers' write-once bucket slots.
type teacher struct {
	seed    int64
	lookups int
	signal  float64 // stddev of latent row scores
	bias    float64
	denseW  []float64
	tables  []teacherTable
}

type teacherTable struct {
	zipf embedding.ZipfSampler
	// head[r] caches row r's unit-variance score (before × signal) as
	// Float64bits once some fill has needed it; 0 means not yet (a score
	// that really is +0 is recomputed every time, which is still right).
	// Entries are filled on demand rather than up front so a short run
	// over many tables pays only for the rows it draws.
	head []atomic.Uint64
}

// headRows bounds the cached head of a table: 92 % of Zipf(1.05) lookups
// into 250 000 rows, at half a megabyte.
const headRows = 1 << 16

func newTeacher(seed int64, rows []int, lookups int, skew, signal, bias float64, denseW []float64) *teacher {
	t := &teacher{seed: seed, lookups: lookups, signal: signal, bias: bias, denseW: denseW,
		tables: make([]teacherTable, len(rows))}
	zipf := embedding.Zipf{S: skew}
	for i, m := range rows {
		t.tables[i] = teacherTable{zipf: zipf.Sampler(m), head: make([]atomic.Uint64, min(m, headRows))}
	}
	return t
}

// unitScore is the hidden N(0,1) score of (table, row), computed by hashing
// so huge tables need no storage.
func (t *teacher) unitScore(table int, row int32) float64 {
	h := rng.Mix(uint64(t.seed) ^ uint64(table)<<32 ^ uint64(uint32(row)))
	u1 := float64(h&0xFFFFFFFF) / float64(1<<32)
	u2 := float64(h>>32) / float64(1<<32)
	return math.Sqrt(-2*math.Log(u1+1e-12)) * math.Cos(2*math.Pi*u2)
}

// latent returns the teacher's hidden score for (table, row).
func (t *teacher) latent(table int, row int32) float64 {
	head := t.tables[table].head
	if uint(row) >= uint(len(head)) {
		return t.unitScore(table, row) * t.signal
	}
	bits := head[row].Load()
	if bits == 0 {
		bits = math.Float64bits(t.unitScore(table, row))
		head[row].Store(bits)
	}
	return math.Float64frombits(bits) * t.signal
}

// bagChunk is how many lookups of a bag appendBag and bagScore handle per
// pass; their scratch lives on the stack.
const bagChunk = 64

// appendBag appends table ti's lookups of the bag keyed (tag, batch, sub) to
// b.Indices: the stream's uniforms in order, through the sampler's DrawBag.
// A bag of one lookup (dist-func4) skips the staging and takes DrawU, which
// is what DrawBag does with it: without this and bagScore's bag-of-one path,
// FillRange at that shape ran ≈ 20 % slower and the dist-func4 step 6–13 %
// (docs/PERF.md, "A bag at a time"). Which bags reach a vector kernel is
// DrawBag's and GatherSlots' decision alone.
func (t *teacher) appendBag(b *embedding.Batch, ti int, tag uint64, batch, sub int) {
	g := tableStream(t.seed, tag, batch, sub, ti)
	zipf := &t.tables[ti].zipf
	if t.lookups == 1 {
		b.Indices = append(b.Indices, zipf.DrawU(g.Float64()))
		return
	}
	var u [bagChunk]float64
	for l := 0; l < t.lookups; l += len(u) {
		n := min(len(u), t.lookups-l)
		for i := range n {
			u[i] = g.Float64()
		}
		base := len(b.Indices)
		b.Indices = slices.Grow(b.Indices, n)[:base+n]
		zipf.DrawBag(b.Indices[base:], u[:n])
	}
}

// bagScore returns Σ latent(ti, r) over rows, added in lookup order from +0.
// It reads the bag's head scores through embedding.GatherSlots and takes the
// scalar latent only for the rows that come back 0 (a cold slot or a row
// past the head): every term is the value latent returns, so the sum is the
// same float64 chain. A bag of one lookup takes latent directly, for the
// reason appendBag gives.
func (t *teacher) bagScore(ti int, rows []int32) float64 {
	var acc float64
	if len(rows) == 1 {
		return acc + t.latent(ti, rows[0])
	}
	head := t.tables[ti].head
	var bits [bagChunk]uint64
	for len(rows) > 0 {
		n := min(len(rows), len(bits))
		embedding.GatherSlots(bits[:n], head, rows[:n])
		for i, r := range rows[:n] {
			if b := bits[i]; b != 0 {
				acc += math.Float64frombits(b) * t.signal
			} else {
				acc += t.latent(ti, r)
			}
		}
		rows = rows[n:]
	}
	return acc
}

// features writes sample k of mb's features — dense features from the stream
// dense and every table's bag keyed (tag, batch, sub) — and returns its click
// probability σ(bias + w·dense + Σ_t mean_s latent(t, idx_s)).
func (t *teacher) features(mb *MiniBatch, k int, dense sampleRNG, tag uint64, batch, sub int) float64 {
	logit := t.bias
	row := mb.Dense.Row(k)
	for j := range row {
		// counter-like features: |N(0,1)| compressed by log1p, centered
		// so the teacher's dense term is ~zero-mean.
		v := math.Log1p(math.Abs(dense.norm())*3) - 1.2
		row[j] = float32(v)
		logit += t.denseW[j] * v
	}
	for ti := range t.tables {
		b := mb.Sparse[ti]
		base := len(b.Indices)
		t.appendBag(b, ti, tag, batch, sub)
		b.Offsets[k+1] = int32(len(b.Indices))
		logit += t.bagScore(ti, b.Indices[base:]) / float64(t.lookups)
	}
	return 1 / (1 + math.Exp(-logit))
}

// label writes sample k's label, a Bernoulli(pCTR) draw from lbl.
func label(mb *MiniBatch, k int, pCTR float64, lbl sampleRNG) {
	if lbl.Float64() < pCTR {
		mb.Labels[k] = 1
	} else {
		mb.Labels[k] = 0
	}
}
