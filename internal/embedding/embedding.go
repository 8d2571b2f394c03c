// Package embedding implements the sparse EmbeddingBag layer of DLRM:
// multi-hot lookups into a table W ∈ R^{M×E} with sum pooling (Algorithm 1),
// the backward pass producing per-lookup gradient rows (Algorithm 2), and
// the optimizer-side sparse update (Algorithm 3) in the four strategies the
// paper evaluates — Reference, AtomicXchg, RTM-style, and RaceFree
// (Algorithm 4) — plus the fused backward+update variant of §III-A.
//
// A minibatch of bags is encoded exactly like the framework kernel the paper
// patches: Indices holds the concatenated lookup rows of all bags and
// Offsets[n] .. Offsets[n+1] delimit bag n, so NS = Offsets[N] is the total
// number of lookups.
package embedding

import (
	"fmt"
	"math/rand"

	"repro/internal/bf16"
	"repro/internal/par"
)

// Table is one embedding table: M rows of dimension E, stored row-major in a
// single slice so a bag lookup streams whole cache lines, the GUPS-like
// access pattern §II describes.
type Table struct {
	M, E int
	W    []float32

	// ka carries one kernel call's parameters to the package-level parallel
	// bodies, so the hot path dispatches through par.Pool.ForNArg /
	// ForEachWorkerArg without allocating closures. A table runs one kernel
	// at a time (kernels on distinct tables are independent).
	ka kernArgs
}

// kernArgs is the per-call state shared by every Table kernel body.
type kernArgs struct {
	b     *Batch
	out   []float32
	dOut  []float32
	dW    []float32
	lr    float32
	split *bf16.Split
	quant func(float32) float32
}

// NewTable allocates an M×E table initialized uniform in [-scale, scale].
func NewTable(m, e int, rng *rand.Rand, scale float32) *Table {
	t := &Table{M: m, E: e, W: make([]float32, m*e)}
	for i := range t.W {
		t.W[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// Row returns row i of the table, aliasing its storage.
func (t *Table) Row(i int) []float32 { return t.W[i*t.E : (i+1)*t.E] }

// Clone returns a deep copy of the table (used by the strategy-equivalence
// tests and the distributed trainer's replication checks).
func (t *Table) Clone() *Table {
	c := &Table{M: t.M, E: t.E, W: make([]float32, len(t.W))}
	copy(c.W, t.W)
	return c
}

// Batch is one minibatch of bags for a single table.
type Batch struct {
	Indices []int32 // concatenated lookup rows, len NS
	Offsets []int32 // len N+1, Offsets[0]=0, Offsets[N]=NS
}

// NumBags returns N.
func (b *Batch) NumBags() int { return len(b.Offsets) - 1 }

// Reset prepares b for refilling with n bags: offsets are sized to n+1 with
// Offsets[0] = 0 and the index list is truncated (capacity retained), so a
// fill loop of appends reallocates nothing once the batch has reached its
// steady-state lookup count.
func (b *Batch) Reset(n int) {
	if cap(b.Offsets) < n+1 {
		b.Offsets = make([]int32, n+1)
	} else {
		b.Offsets = b.Offsets[:n+1]
	}
	b.Offsets[0] = 0
	b.Indices = b.Indices[:0]
}

// NumLookups returns NS.
func (b *Batch) NumLookups() int { return len(b.Indices) }

// Validate checks the offsets are monotone and the indices are in range for
// a table of m rows.
func (b *Batch) Validate(m int) error {
	if len(b.Offsets) == 0 || b.Offsets[0] != 0 {
		return fmt.Errorf("embedding: offsets must start at 0")
	}
	for i := 1; i < len(b.Offsets); i++ {
		if b.Offsets[i] < b.Offsets[i-1] {
			return fmt.Errorf("embedding: offsets not monotone at %d", i)
		}
	}
	if int(b.Offsets[len(b.Offsets)-1]) != len(b.Indices) {
		return fmt.Errorf("embedding: offsets[N]=%d != len(indices)=%d",
			b.Offsets[len(b.Offsets)-1], len(b.Indices))
	}
	for i, ix := range b.Indices {
		if ix < 0 || int(ix) >= m {
			return fmt.Errorf("embedding: index %d out of range [0,%d) at %d", ix, m, i)
		}
	}
	return nil
}

// fwdBody computes the bag sums for bags [lo, hi).
func fwdBody(arg any, tid, lo, hi int) {
	t := arg.(*Table)
	b, out, e := t.ka.b, t.ka.out, t.E
	for bag := lo; bag < hi; bag++ {
		start, end := b.Offsets[bag], b.Offsets[bag+1]
		bagSum(out[bag*e:(bag+1)*e], t.W, b.Indices[start:], int(end-start))
	}
}

// Forward computes out[n] = Σ_{s∈bag n} W[I[s]] (Algorithm 1). out must
// hold N*E float32s, laid out N rows of E. Parallel over bags; every bag
// writes a disjoint output row so no synchronization is needed.
func (t *Table) Forward(p *par.Pool, b *Batch, out []float32) {
	n := b.NumBags()
	if len(out) != n*t.E {
		panic(fmt.Sprintf("embedding: forward out len %d want %d", len(out), n*t.E))
	}
	t.ka.b, t.ka.out = b, out
	p.ForNArg(n, fwdBody, t)
	t.ka.b, t.ka.out = nil, nil
}

// bwdBody materializes per-lookup gradient rows for bags [lo, hi).
func bwdBody(arg any, tid, lo, hi int) {
	t := arg.(*Table)
	b, dOut, dW, e := t.ka.b, t.ka.dOut, t.ka.dW, t.E
	for bag := lo; bag < hi; bag++ {
		g := dOut[bag*e : (bag+1)*e]
		start, end := b.Offsets[bag], b.Offsets[bag+1]
		for s := start; s < end; s++ {
			copy(dW[int(s)*e:(int(s)+1)*e], g)
		}
	}
}

// Backward materializes the per-lookup gradient rows dW[s] = dOut[bag(s)]
// (Algorithm 2). dW must hold NS*E float32s. Parallel over bags; lookups of
// different bags occupy disjoint dW rows.
func (t *Table) Backward(p *par.Pool, b *Batch, dOut, dW []float32) {
	n := b.NumBags()
	if len(dOut) != n*t.E {
		panic("embedding: backward dOut size mismatch")
	}
	if len(dW) != b.NumLookups()*t.E {
		panic("embedding: backward dW size mismatch")
	}
	t.ka.b, t.ka.dOut, t.ka.dW = b, dOut, dW
	p.ForNArg(n, bwdBody, t)
	t.ka.b, t.ka.dOut, t.ka.dW = nil, nil, nil
}

// fusedBody applies the fused backward+update for the rows tid owns.
func fusedBody(arg any, tid, workers int) {
	t := arg.(*Table)
	b, dOut, lr, e := t.ka.b, t.ka.dOut, t.ka.lr, t.E
	lo, hi := par.Chunk(t.M, workers, tid)
	for bag := 0; bag < b.NumBags(); bag++ {
		start, end := b.Offsets[bag], b.Offsets[bag+1]
		updateRows(t.W, e, b.Indices[start:], int(end-start), lo, hi, dOut[bag*e:(bag+1)*e], 0, lr)
	}
}

// FusedBackwardUpdate applies W[I[s]] += -lr·dOut[bag(s)] directly, skipping
// the dW materialization of Algorithm 2 (§III-A reports up to 1.6× for the
// standalone fused variant). It uses the race-free row partitioning of
// Algorithm 4, so it is deterministic.
func (t *Table) FusedBackwardUpdate(p *par.Pool, b *Batch, dOut []float32, lr float32) {
	t.ka.b, t.ka.dOut, t.ka.lr = b, dOut, lr
	p.ForEachWorkerArg(fusedBody, t)
	t.ka.b, t.ka.dOut = nil, nil
}
