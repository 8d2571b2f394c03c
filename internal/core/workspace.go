package core

import (
	"repro/internal/tensor"
)

// Workspace preallocates every buffer a Model's dense passes reuse across
// calls — the pack/unpack and interaction intermediates of ForwardDense and
// BackwardDense, and BackwardDense's bag-output gradients — making them
// allocation-free in steady state. (The sparse path's buffers, the bag
// outputs, per-lookup gradient rows and loss gradient, are the executor's:
// DistWorkspace.) Buffers are keyed by shape and grown monotonically, so the
// first pass (or a batch-size change) pays the allocations and subsequent
// ones pay none — the property the allocation-regression tests assert.
//
// A Workspace belongs to its Model; it is not safe for concurrent use,
// matching the one-region-at-a-time execution model of the paper's
// single-socket training loop.
type Workspace struct {
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

// DEmb returns the per-table bag-gradient buffers for an N-sample batch.
func (ws *Workspace) DEmb(tables, rowLen int) [][]float32 {
	return ensureRows(&ws.dEmb, tables, rowLen)
}
