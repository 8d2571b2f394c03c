// Package data generates the training workloads. The paper uses a random
// dataset for the Small/Large configs and the Criteo Terabyte click logs for
// the MLPerf config; Criteo is not redistributable, so ClickLog is the
// synthetic substitute: categorical features drawn from Zipf distributions
// over each table's rows (reproducing the hot-row contention that drives
// Fig. 7/8's MLPerf results) and labels planted by a logistic teacher over
// latent row scores (so ROC AUC climbs toward a known ceiling, which is what
// Fig. 16's convergence comparison needs).
//
// Every dataset is randomly addressable at sample granularity: FillRange
// materializes any sample slice of a batch, and FillTableColumn one table's
// bags over any slice, both into caller-owned buffers. That is the property
// the sharded per-rank loaders (loader.go) are built on — a rank reads only
// its N/R slice plus its owned tables' columns, never the full global
// minibatch the §VI-D2 framework loader re-reads on every rank.
package data

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// MiniBatch is one training batch: dense features, one sparse batch per
// embedding table, and binary labels.
type MiniBatch struct {
	N      int
	Dense  *tensor.Dense      // N×D
	Sparse []*embedding.Batch // per table
	Labels []float32          // N
}

// Reset prepares mb for reuse as an n-sample batch with d dense features
// and `tables` sparse tables: shapes are set, sparse offsets rebased to an
// empty state, and storage is reallocated only on capacity growth — the
// repeated-fill contract the streaming loaders rely on for their
// zero-allocation steady state.
func (mb *MiniBatch) Reset(n, d, tables int) {
	mb.N = n
	if mb.Dense == nil {
		mb.Dense = &tensor.Dense{}
	}
	mb.Dense.Rows, mb.Dense.Cols = n, d
	mb.Dense.Data = ensureF32(&mb.Dense.Data, n*d)
	mb.Labels = ensureF32(&mb.Labels, n)
	if len(mb.Sparse) != tables {
		grown := make([]*embedding.Batch, tables)
		copy(grown, mb.Sparse)
		mb.Sparse = grown
	}
	for t := range mb.Sparse {
		if mb.Sparse[t] == nil {
			mb.Sparse[t] = &embedding.Batch{}
		}
		mb.Sparse[t].Reset(n)
	}
}

// reserveIndices gives b.Indices, just reset, room for exactly n lookups
// unless it has that much already, so the fill's appends never regrow it.
func reserveIndices(b *embedding.Batch, n int) {
	if cap(b.Indices) < n {
		b.Indices = make([]int32, 0, n)
	}
}

// ensureF32 returns *buf resized to n elements, reallocating only on
// capacity growth.
func ensureF32(buf *[]float32, n int) []float32 {
	s := *buf
	if cap(s) < n {
		s = make([]float32, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// Dataset produces deterministic minibatches by index. Samples are
// individually addressable: FillRange and FillTableColumn materialize any
// slice of a batch into caller-owned buffers, so per-rank sharded loading
// reads exactly its share of the data. Implementations are safe for
// concurrent fills of distinct buffers (the rank goroutines of a simulated
// cluster share one Dataset).
type Dataset interface {
	// Batch materializes minibatch i with n samples. It allocates; hot
	// paths use FillRange with a reused MiniBatch instead.
	Batch(i, n int) *MiniBatch
	// FillRange materializes samples [lo, hi) of minibatch i (n samples
	// total) into mb, reusing mb's buffers: global sample lo becomes mb
	// sample 0 and sparse offsets are rebased to start at 0.
	// FillRange(i, n, 0, n, mb) is the full batch. n matters only to
	// file-backed datasets (epoch wrap-around); generated datasets derive
	// samples from (i, sample) alone.
	FillRange(i, n, lo, hi int, mb *MiniBatch)
	// FillTableColumn materializes table t's bags for samples [lo, hi) of
	// minibatch i into b — the model-parallel "column read" a table owner
	// needs without materializing any other table.
	FillTableColumn(i, n, t, lo, hi int, b *embedding.Batch)
	// NumTables returns the sparse feature count.
	NumTables() int
	// DenseDim returns the dense feature width.
	DenseDim() int
}

// materialize is the shared allocating Batch implementation.
func materialize(ds Dataset, i, n int) *MiniBatch {
	mb := &MiniBatch{}
	ds.FillRange(i, n, 0, n, mb)
	return mb
}

// Random is the uniform synthetic dataset used for the Small and Large
// configurations (§VI-D2): indices uniform over each table, dense features
// uniform in [-1, 1], labels Bernoulli(1/2). There is nothing to learn; it
// exists to exercise performance.
type Random struct {
	Seed    int64
	D       int // dense features
	Tables  int
	Rows    int // rows per table
	Lookups int // P
}

// NumTables implements Dataset.
func (r *Random) NumTables() int { return r.Tables }

// DenseDim implements Dataset.
func (r *Random) DenseDim() int { return r.D }

// Batch implements Dataset.
func (r *Random) Batch(i, n int) *MiniBatch { return materialize(r, i, n) }

// FillRange implements Dataset.
func (r *Random) FillRange(i, n, lo, hi int, mb *MiniBatch) {
	mb.Reset(hi-lo, r.D, r.Tables)
	for s := lo; s < hi; s++ {
		g := sampleStream(r.Seed, randomTag, i, s)
		row := mb.Dense.Row(s - lo)
		for j := range row {
			row[j] = g.f32()*2 - 1
		}
		if g.f32() > 0.5 {
			mb.Labels[s-lo] = 1
		} else {
			mb.Labels[s-lo] = 0
		}
	}
	for t := 0; t < r.Tables; t++ {
		r.FillTableColumn(i, n, t, lo, hi, mb.Sparse[t])
	}
}

// FillTableColumn implements Dataset.
func (r *Random) FillTableColumn(i, n, t, lo, hi int, b *embedding.Batch) {
	b.Reset(hi - lo)
	reserveIndices(b, (hi-lo)*r.Lookups)
	u := embedding.Uniform{}
	for s := lo; s < hi; s++ {
		g := tableStream(r.Seed, randomTag, i, s, t)
		for l := 0; l < r.Lookups; l++ {
			b.Indices = append(b.Indices, u.DrawU(g.Float64(), r.Rows))
		}
		b.Offsets[s-lo+1] = int32(len(b.Indices))
	}
}

// ClickLog is the synthetic Criteo-Terabyte substitute. Each table t has a
// latent per-row score u_t[m] ~ N(0, TableSignal); the label of a sample is
// Bernoulli(σ(bias + w·dense + Σ_t mean_s u_t[idx_s])). Indices follow
// Zipf(Skew), dense features are log-normal-ish like click counters.
//
// The exported fields are fixed by the first fill: it builds the generator
// (samplers, score cache) from them, and later changes have no effect.
type ClickLog struct {
	Seed    int64
	D       int
	Rows    []int // per-table row counts (Criteo tables are wildly uneven)
	Lookups int
	Skew    float64 // Zipf exponent, ≈1.05 for click logs

	// Teacher parameters.
	TableSignal float64 // stddev of latent row scores
	DenseSignal float64 // scale of dense teacher weights
	Bias        float64 // prior log-odds (negative: clicks are rare-ish)

	denseW []float64
	once   sync.Once
	t      *teacher
}

// NewClickLog builds a click-log dataset with sensible teacher defaults.
func NewClickLog(seed int64, d int, rows []int, lookups int) *ClickLog {
	c := &ClickLog{
		Seed: seed, D: d, Rows: rows, Lookups: lookups,
		Skew: 1.05, TableSignal: 0.6, DenseSignal: 0.4, Bias: -0.4,
	}
	c.denseW = teacherDenseW(seed, d, c.DenseSignal)
	return c
}

// teacherDenseW draws the dense teacher weights.
func teacherDenseW(seed int64, d int, signal float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64() * signal
	}
	return w
}

// NumTables implements Dataset.
func (c *ClickLog) NumTables() int { return len(c.Rows) }

// DenseDim implements Dataset.
func (c *ClickLog) DenseDim() int { return c.D }

func (c *ClickLog) teacher() *teacher {
	c.once.Do(func() {
		c.t = newTeacher(c.Seed, c.Rows, c.Lookups, c.Skew, c.TableSignal, c.Bias, c.denseW)
	})
	return c.t
}

// Batch implements Dataset.
func (c *ClickLog) Batch(i, n int) *MiniBatch { return materialize(c, i, n) }

// FillRange implements Dataset. The teacher label of sample s needs the
// latent scores of every table's lookups for s — all regenerated here from
// the per-(sample, table) streams, so the label a shard computes is
// bit-identical to the one the full-batch read computes.
func (c *ClickLog) FillRange(i, n, lo, hi int, mb *MiniBatch) {
	t := c.teacher()
	mb.Reset(hi-lo, c.D, len(t.tables))
	for _, b := range mb.Sparse {
		reserveIndices(b, (hi-lo)*t.lookups)
	}
	for s := lo; s < hi; s++ {
		pCTR := t.features(mb, s-lo, sampleStream(t.seed, clickTag, i, s), clickTag, i, s)
		label(mb, s-lo, pCTR, sampleStream(t.seed, clickLblTag, i, s))
	}
}

// FillTableColumn implements Dataset.
func (c *ClickLog) FillTableColumn(i, n, t, lo, hi int, b *embedding.Batch) {
	b.Reset(hi - lo)
	tch := c.teacher()
	reserveIndices(b, (hi-lo)*tch.lookups)
	for s := lo; s < hi; s++ {
		tch.appendBag(b, t, clickTag, i, s)
		b.Offsets[s-lo+1] = int32(len(b.Indices))
	}
}

// Validate sanity-checks the batch against table row counts.
func (mb *MiniBatch) Validate(rows []int) error {
	if len(mb.Sparse) != len(rows) {
		return fmt.Errorf("data: %d sparse batches for %d tables", len(mb.Sparse), len(rows))
	}
	if mb.Dense.Rows != mb.N || len(mb.Labels) != mb.N {
		return fmt.Errorf("data: dense/label rows mismatch")
	}
	for t, b := range mb.Sparse {
		if b.NumBags() != mb.N {
			return fmt.Errorf("data: table %d has %d bags want %d", t, b.NumBags(), mb.N)
		}
		if err := b.Validate(rows[t]); err != nil {
			return err
		}
	}
	return nil
}

// CriteoTBRows are the 26 categorical-table cardinalities of the Criteo
// Terabyte dataset as used by the MLPerf DLRM benchmark, capped at 40M rows
// (Table I: "#rows per table: up to 40M").
var CriteoTBRows = []int{
	39884406, 39043, 17289, 7420, 20263, 3, 7120, 1543, 63, 38532951,
	2953546, 403346, 10, 2208, 11938, 155, 4, 976, 14, 39979771,
	25641295, 39664984, 585935, 12972, 108, 36,
}

// ScaleRows returns row counts scaled by f (at least 1 row), used to fit
// paper-scale configs into test memory while preserving relative skew.
func ScaleRows(rows []int, f float64) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		s := int(float64(r) * f)
		if s < 1 {
			s = 1
		}
		out[i] = s
	}
	return out
}
