package data

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
)

// RequestLog is the serving-traffic dataset: every request belongs to an
// *entity* (a user/item pair key) drawn Zipf(EntitySkew) over a fixed
// Universe, and an entity's table rows are a pure function of (entity,
// table) — so when a hot entity recurs, the very same embedding rows recur
// with it. That per-request hot-row reuse is what a tiered parameter store
// (internal/embstore) or a result cache can actually exploit; ClickLog, by
// contrast, draws every sample's bags independently, making requests
// exchangeable — Zipf-hot rows but no repeated row *sets*.
//
// Like every dataset here it is counter-based and randomly addressable:
// sample (i, s) derives its entity from its own stream, and the entity's
// profile streams are keyed by the entity alone, so any slice of any batch
// is re-materializable bit-identically — shards, replays, and the serving
// dispatcher's arbitrary batch boundaries all see the same requests.
//
// Because an entity's profile is a pure function of (seed, entity), the log
// keeps the profiles of its head entities — ids below min(Universe,
// entityHeadBytes ÷ (4·D + 4·T·P + 8)), which Zipf traffic hits most — once
// built: the dense row, every table's P rows and the click probability the
// label is drawn against. A returning head entity costs a copy plus its
// per-request label draw, and every byte of every batch is what the uncached
// fill writes. Profiles are built the first time their entity is seen, so
// memory grows with the distinct head entities a run actually meets; the
// worst case is 16 MiB of profile data plus, per head entity, an 8-byte slot,
// a 64-byte header and the allocator's size-class rounding (17.1 MiB at the
// serve-func shape, D = 512 and 8 tables of P = 50: 4 588 entities).
type RequestLog struct {
	Seed    int64
	D       int
	Rows    []int // per-table row counts
	Lookups int

	// Universe is the entity-id space requests draw from; EntitySkew the
	// Zipf exponent of traffic over it (the head entities are the hot
	// requests). RowSkew shapes which rows an entity's profile references
	// within each table.
	Universe   int
	EntitySkew float64
	RowSkew    float64

	// Teacher parameters (the ClickLog teacher over entity profiles).
	TableSignal float64
	DenseSignal float64
	Bias        float64

	denseW []float64
	once   sync.Once
	t      *teacher
	entity embedding.ZipfSampler
	// head[e] is entity e's profile once some fill has built it. Slots are
	// written once; concurrent first fills build identical profiles and
	// either may be published.
	head []atomic.Pointer[profile]
}

// profile is what FillRange writes for a request of one entity, except its
// label: the dense row, the T bags of P rows each (table-major), and the
// click probability.
type profile struct {
	dense []float32
	rows  []int32
	pCTR  float64
}

// entityHeadBytes bounds the profile data a RequestLog keeps: the head is as
// many entities as fit at 4·D + 4·T·P + 8 bytes each.
const entityHeadBytes = 16 << 20

// NewRequestLog builds a serving request log with click-log defaults:
// Criteo-like 1.05 skew for both entities and rows, a 100k-entity universe,
// and the ClickLog teacher so functional predictions have structure.
func NewRequestLog(seed int64, d int, rows []int, lookups int) *RequestLog {
	r := &RequestLog{
		Seed: seed, D: d, Rows: rows, Lookups: lookups,
		Universe: 100_000, EntitySkew: 1.05, RowSkew: 1.05,
		TableSignal: 0.6, DenseSignal: 0.4, Bias: -0.4,
	}
	r.denseW = teacherDenseW(seed, d, r.DenseSignal)
	return r
}

// NumTables implements Dataset.
func (r *RequestLog) NumTables() int { return len(r.Rows) }

// DenseDim implements Dataset.
func (r *RequestLog) DenseDim() int { return r.D }

func (r *RequestLog) teacher() *teacher {
	r.once.Do(func() {
		r.t = newTeacher(r.Seed, r.Rows, r.Lookups, r.RowSkew, r.TableSignal, r.Bias, r.denseW)
		r.entity = embedding.Zipf{S: r.EntitySkew}.Sampler(r.Universe)
		bytes := 4*r.D + 4*len(r.Rows)*r.Lookups + 8
		r.head = make([]atomic.Pointer[profile], min(r.Universe, entityHeadBytes/bytes))
	})
	return r.t
}

// Entity returns the entity request (i, s) belongs to — exported so
// serving-side caches and tests can key on it.
func (r *RequestLog) Entity(i, s int) int32 {
	t := r.teacher()
	g := sampleStream(t.seed, reqTag, i, s)
	return r.entity.DrawU(g.Float64())
}

// Batch implements Dataset.
func (r *RequestLog) Batch(i, n int) *MiniBatch { return materialize(r, i, n) }

// FillRange implements Dataset: dense features and every table's rows come
// from the entity's profile streams (a returning user presents the same
// features and the same rows — the whole point), the label is a per-request
// Bernoulli draw under the teacher's click probability.
func (r *RequestLog) FillRange(i, n, lo, hi int, mb *MiniBatch) {
	t := r.teacher()
	mb.Reset(hi-lo, r.D, len(t.tables))
	for _, b := range mb.Sparse {
		reserveIndices(b, (hi-lo)*t.lookups)
	}
	for s := lo; s < hi; s++ {
		k, e := s-lo, int(r.Entity(i, s))
		var pCTR float64
		if e < len(r.head) {
			pCTR = r.fillHead(mb, k, e)
		} else {
			pCTR = t.features(mb, k, sampleStream(t.seed, reqProfTag, e, -1), reqProfTag, e, 0)
		}
		label(mb, k, pCTR, sampleStream(t.seed, reqLblTag, i, s))
	}
}

// fillHead writes head entity e's features into sample k of mb and returns
// its click probability: a copy of its profile, which the entity's first
// sight builds from what the teacher wrote.
func (r *RequestLog) fillHead(mb *MiniBatch, k, e int) float64 {
	t := r.t
	if p := r.head[e].Load(); p != nil {
		copy(mb.Dense.Row(k), p.dense)
		for ti, b := range mb.Sparse {
			b.Indices = append(b.Indices, p.rows[ti*t.lookups:(ti+1)*t.lookups]...)
			b.Offsets[k+1] = int32(len(b.Indices))
		}
		return p.pCTR
	}
	pCTR := t.features(mb, k, sampleStream(t.seed, reqProfTag, e, -1), reqProfTag, e, 0)
	p := &profile{
		dense: slices.Clone(mb.Dense.Row(k)),
		rows:  make([]int32, 0, len(mb.Sparse)*t.lookups),
		pCTR:  pCTR,
	}
	for _, b := range mb.Sparse {
		p.rows = append(p.rows, b.Indices[b.Offsets[k]:b.Offsets[k+1]]...)
	}
	r.head[e].CompareAndSwap(nil, p)
	return p.pCTR
}

// FillTableColumn implements Dataset.
func (r *RequestLog) FillTableColumn(i, n, t, lo, hi int, b *embedding.Batch) {
	b.Reset(hi - lo)
	tch := r.teacher()
	reserveIndices(b, (hi-lo)*tch.lookups)
	for s := lo; s < hi; s++ {
		tch.appendBag(b, t, reqProfTag, int(r.Entity(i, s)), 0)
		b.Offsets[s-lo+1] = int32(len(b.Indices))
	}
}
