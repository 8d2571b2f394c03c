package core

import (
	"repro/internal/tensor"
)

// Workspace preallocates every buffer the training iteration reuses across
// Step calls, making the steady state allocation-free: the embedding bag
// outputs and their gradients, the per-table sparse gradient rows consumed
// by the update strategies (including the BF16Split/FP24 paths), the
// loss gradient, and the dense-path pack/unpack and interaction
// intermediates of ForwardDense/BackwardDense. Buffers are keyed by shape
// and grown monotonically, so the first Step (or a batch-size change) pays
// the allocations and subsequent Steps pay none — the property the
// allocation-regression tests assert.
//
// A Workspace is owned by a Trainer and shared with its Model's dense
// passes; it is not safe for concurrent use, matching the one-region-at-a-
// time execution model of the paper's single-socket training loop.
type Workspace struct {
	// Sparse path (Trainer.Step).
	embOut [][]float32 // per table: bag outputs, N×E row-major
	dz     []float32   // loss gradient, length N
	embDW  [][]float32 // per table: per-lookup gradient rows, NS×E

	// Dense path (Model.ForwardDense / BackwardDense).
	botIn    *tensor.Acts  // packed bottom-MLP input
	botRows  *tensor.Dense // unpacked bottom-MLP output
	z        []float32     // interaction output, N×OutputDim
	zD       tensor.Dense  // header over z
	topIn    *tensor.Acts  // packed top-MLP input
	logitsD  *tensor.Dense // unpacked logits
	dzD      tensor.Dense  // header over the caller's dz
	dLogit   *tensor.Acts  // packed logit gradient
	dInter   *tensor.Dense // unpacked interaction gradient
	dBot     []float32     // bottom-feature gradient, N×E
	dBotD    tensor.Dense  // header over dBot
	dBotActs *tensor.Acts  // packed bottom-feature gradient
	dEmb     [][]float32   // per table: bag-output gradients, N×E
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

// ensureDense returns *buf shaped rows×cols, reusing the data slice.
func ensureDense(buf **tensor.Dense, rows, cols int) *tensor.Dense {
	d := *buf
	if d == nil {
		d = &tensor.Dense{}
		*buf = d
	}
	d.Rows, d.Cols = rows, cols
	d.Data = ensureF32(&d.Data, rows*cols)
	return d
}

// ensureRows returns *rows resized to count slices of rowLen elements each.
func ensureRows(rows *[][]float32, count, rowLen int) [][]float32 {
	r := *rows
	if len(r) != count {
		grown := make([][]float32, count)
		copy(grown, r)
		r = grown
	}
	for t := range r {
		r[t] = ensureF32(&r[t], rowLen)
	}
	*rows = r
	return r
}

// EmbOut returns the per-table bag-output buffers for an N-sample batch.
func (ws *Workspace) EmbOut(tables, rowLen int) [][]float32 {
	return ensureRows(&ws.embOut, tables, rowLen)
}

// DEmb returns the per-table bag-gradient buffers for an N-sample batch.
func (ws *Workspace) DEmb(tables, rowLen int) [][]float32 {
	return ensureRows(&ws.dEmb, tables, rowLen)
}

// EmbDW returns table t's per-lookup gradient buffer holding n elements.
// Slots are grown on demand so tables of different lookup counts coexist.
func (ws *Workspace) EmbDW(t, tables, n int) []float32 {
	if len(ws.embDW) != tables {
		grown := make([][]float32, tables)
		copy(grown, ws.embDW)
		ws.embDW = grown
	}
	return ensureF32(&ws.embDW[t], n)
}

// Dz returns the loss-gradient buffer for an N-sample batch.
func (ws *Workspace) Dz(n int) []float32 {
	return ensureF32(&ws.dz, n)
}
