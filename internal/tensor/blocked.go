package tensor

import (
	"fmt"

	"repro/internal/sweep"
)

// Acts is an activation tensor in the paper's [Cb][Nb][bn][bc] blocked
// layout (§III-B): the logical matrix is N×C (one row per sample), blocked
// into Cb×Nb tiles of bn×bc, with the feature-block index outermost. The
// same layout serves layer outputs: a layer's Y (logical N×K, stored
// [Kb][Nb][bn][bk]) is exactly the Acts tensor of the next layer.
//
// This layout, in contrast to earlier work, makes the backward-by-weights
// pass (where activations play the role weights play in forward) see the
// same favorable blocking as the forward pass.
type Acts struct {
	N, C   int // logical dims: N samples × C features
	BN, BC int // block sizes
	Nb, Cb int // block counts: Nb = N/BN, Cb = C/BC
	Data   []float32
}

// NewActs allocates a zeroed blocked activation tensor. N must be divisible
// by bn and C by bc; the paper's configs use power-of-two features and
// minibatches so the kernels do not carry remainder-tile code.
func NewActs(n, c, bn, bc int) *Acts {
	if bn <= 0 || bc <= 0 || n%bn != 0 || c%bc != 0 {
		panic(fmt.Sprintf("tensor: bad activation blocking N=%d C=%d bn=%d bc=%d", n, c, bn, bc))
	}
	return &Acts{
		N: n, C: c, BN: bn, BC: bc,
		Nb: n / bn, Cb: c / bc,
		Data: make([]float32, n*c),
	}
}

// EnsureActs returns *buf if it already has the requested blocked shape;
// on a shape change it reshapes the existing tensor in place when the
// backing storage has capacity for n*c elements, and only allocates a
// replacement when it does not — the shape-keyed workspace reuse every
// steady-state activation tensor goes through (see docs/PERF.md). The
// capacity reuse is what lets a serving-style caller alternate batch
// sizes 1..B through the same workspace without reallocating: after one
// pass at the largest batch, every smaller batch reshapes for free.
//
// After a reshape the tensor's contents are unspecified (stale bytes from
// the previous shape): every consumer must fully overwrite it, which the
// kernels do (gemm clears each output tile before accumulating, PackFrom
// writes every block).
func EnsureActs(buf **Acts, n, c, bn, bc int) *Acts {
	a := *buf
	if a != nil && a.N == n && a.C == c && a.BN == bn && a.BC == bc {
		return a
	}
	if a != nil && cap(a.Data) >= n*c {
		if bn <= 0 || bc <= 0 || n%bn != 0 || c%bc != 0 {
			panic(fmt.Sprintf("tensor: bad activation blocking N=%d C=%d bn=%d bc=%d", n, c, bn, bc))
		}
		a.N, a.C, a.BN, a.BC = n, c, bn, bc
		a.Nb, a.Cb = n/bn, c/bc
		a.Data = a.Data[:n*c]
		return a
	}
	a = NewActs(n, c, bn, bc)
	*buf = a
	return a
}

// Block returns the (cb, nb) tile as a bn*bc slice, sample-major (row n is
// tile[n*bc : n*bc+bc]).
func (a *Acts) Block(cb, nb int) []float32 {
	sz := a.BN * a.BC
	off := (cb*a.Nb + nb) * sz
	return a.Data[off : off+sz : off+sz]
}

// At returns logical element (n, c) — used by tests and pack/unpack only;
// kernels address whole blocks.
func (a *Acts) At(n, c int) float32 {
	nb, ni := n/a.BN, n%a.BN
	cb, ci := c/a.BC, c%a.BC
	return a.Block(cb, nb)[ni*a.BC+ci]
}

// Set stores logical element (n, c).
func (a *Acts) Set(n, c int, v float32) {
	nb, ni := n/a.BN, n%a.BN
	cb, ci := c/a.BC, c%a.BC
	a.Block(cb, nb)[ni*a.BC+ci] = v
}

// Zero clears the tensor.
func (a *Acts) Zero() {
	for i := range a.Data {
		a.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (a *Acts) Clone() *Acts {
	c := *a
	c.Data = make([]float32, len(a.Data))
	copy(c.Data, a.Data)
	return &c
}

// PackActs converts a row-major N×C matrix into the blocked layout.
func PackActs(d *Dense, bn, bc int) *Acts {
	a := NewActs(d.Rows, d.Cols, bn, bc)
	a.PackFrom(d)
	return a
}

// PackFrom fills the blocked tensor from a row-major matrix of the same
// logical shape, reusing a's storage — the steady-state counterpart of
// PackActs. d may be narrower than a by less than one block: the remaining
// columns are written as zeros (a layer input padded to a blockable width).
func (a *Acts) PackFrom(d *Dense) {
	if d.Rows != a.N || d.Cols > a.C || d.Cols <= a.C-a.BC {
		panic(fmt.Sprintf("tensor: PackFrom shape %dx%d into %dx%d", d.Rows, d.Cols, a.N, a.C))
	}
	bn, bc := a.BN, a.BC
	for cb := 0; cb < a.Cb; cb++ {
		w := min(bc, d.Cols-cb*bc)
		for nb := 0; nb < a.Nb; nb++ {
			blk := a.Block(cb, nb)
			for ni := 0; ni < bn; ni++ {
				n := nb*bn + ni
				src := d.Data[n*d.Cols+cb*bc:]
				copy(blk[ni*bc:ni*bc+w], src[:w])
				if w < bc {
					clear(blk[ni*bc+w : (ni+1)*bc])
				}
			}
		}
	}
}

// Unpack converts the blocked tensor back to a row-major N×C matrix.
func (a *Acts) Unpack() *Dense {
	d := NewDense(a.N, a.C)
	a.UnpackInto(d)
	return d
}

// UnpackInto writes the row-major image of the blocked tensor into d,
// reusing d's storage — the steady-state counterpart of Unpack. d may be
// narrower than a by less than one block (see PackFrom): the columns beyond
// d.Cols are dropped.
func (a *Acts) UnpackInto(d *Dense) {
	if d.Rows != a.N || d.Cols > a.C || d.Cols <= a.C-a.BC {
		panic(fmt.Sprintf("tensor: UnpackInto shape %dx%d into %dx%d", a.N, a.C, d.Rows, d.Cols))
	}
	bn, bc := a.BN, a.BC
	for cb := 0; cb < a.Cb; cb++ {
		w := min(bc, d.Cols-cb*bc)
		for nb := 0; nb < a.Nb; nb++ {
			blk := a.Block(cb, nb)
			for ni := 0; ni < bn; ni++ {
				n := nb*bn + ni
				copy(d.Data[n*d.Cols+cb*bc:n*d.Cols+cb*bc+w], blk[ni*bc:ni*bc+w])
			}
		}
	}
}

// Weights is a weight tensor in the paper's [Kb][Cb][bc][bk] blocked layout
// (Algorithm 5): the logical matrix is K×C (output × input features),
// blocked into Kb×Cb tiles of bc×bk with the input-feature index major
// inside a tile and the output feature contiguous. That inner layout lets
// the micro-kernel broadcast one input scalar against a contiguous run of
// bk outputs — the shape the batch-reduce GEMM wants.
type Weights struct {
	K, C   int // logical dims: K outputs × C inputs
	BK, BC int
	Kb, Cb int
	Data   []float32
}

// NewWeights allocates a zeroed blocked weight tensor; K%bk and C%bc must be 0.
func NewWeights(k, c, bk, bc int) *Weights {
	if bk <= 0 || bc <= 0 || k%bk != 0 || c%bc != 0 {
		panic(fmt.Sprintf("tensor: bad weight blocking K=%d C=%d bk=%d bc=%d", k, c, bk, bc))
	}
	return &Weights{
		K: k, C: c, BK: bk, BC: bc,
		Kb: k / bk, Cb: c / bc,
		Data: make([]float32, k*c),
	}
}

// Block returns the (kb, cb) tile as a bc*bk slice: element (ci, ki) of the
// tile is tile[ci*bk+ki].
func (w *Weights) Block(kb, cb int) []float32 {
	sz := w.BK * w.BC
	off := (kb*w.Cb + cb) * sz
	return w.Data[off : off+sz : off+sz]
}

// At returns logical element (k, c).
func (w *Weights) At(k, c int) float32 {
	kb, ki := k/w.BK, k%w.BK
	cb, ci := c/w.BC, c%w.BC
	return w.Block(kb, cb)[ci*w.BK+ki]
}

// Set stores logical element (k, c).
func (w *Weights) Set(k, c int, v float32) {
	kb, ki := k/w.BK, k%w.BK
	cb, ci := c/w.BC, c%w.BC
	w.Block(kb, cb)[ci*w.BK+ki] = v
}

// Zero clears the tensor.
func (w *Weights) Zero() {
	for i := range w.Data {
		w.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (w *Weights) Clone() *Weights {
	c := *w
	c.Data = make([]float32, len(w.Data))
	copy(c.Data, w.Data)
	return &c
}

// PackWeights converts a row-major K×C matrix into the blocked layout.
func PackWeights(d *Dense, bk, bc int) *Weights {
	w := NewWeights(d.Rows, d.Cols, bk, bc)
	for k := 0; k < w.K; k++ {
		for c := 0; c < w.C; c++ {
			w.Set(k, c, d.At(k, c))
		}
	}
	return w
}

// Unpack converts the blocked weights back to a row-major K×C matrix.
func (w *Weights) Unpack() *Dense {
	d := NewDense(w.K, w.C)
	for k := 0; k < w.K; k++ {
		for c := 0; c < w.C; c++ {
			d.Set(k, c, w.At(k, c))
		}
	}
	return d
}

// TransposeBlocked returns the logical transpose (C×K) as a new blocked
// weight tensor with swapped block factors. The backward-by-data pass
// computes dX = dY · Wᵀ and reuses the forward kernel with this tensor.
func (w *Weights) TransposeBlocked() *Weights {
	t := NewWeights(w.C, w.K, w.BC, w.BK)
	w.TransposeBlockedInto(t)
	return t
}

// TransposeBlockedInto writes the logical transpose into t, which must have
// the swapped shape and block factors. Layers re-transpose after every
// weight update, so the steady-state path reuses one buffer.
func (w *Weights) TransposeBlockedInto(t *Weights) {
	w.TransposeBlocksInto(t, 0, w.Kb*w.Cb)
}

// TransposeBlocksInto transposes w's blocks lo ≤ kb·Cb+cb < hi into t —
// the unit a parallel caller hands each worker (blocks are independent).
func (w *Weights) TransposeBlocksInto(t *Weights, lo, hi int) {
	if t.K != w.C || t.C != w.K || t.BK != w.BC || t.BC != w.BK {
		panic(fmt.Sprintf("tensor: TransposeBlockedInto %dx%d/%dx%d into %dx%d/%dx%d",
			w.K, w.C, w.BK, w.BC, t.K, t.C, t.BK, t.BC))
	}
	for i := lo; i < hi; i++ {
		kb, cb := i/w.Cb, i%w.Cb
		sweep.Transpose(t.Block(cb, kb), w.Block(kb, cb), w.BC, w.BK)
	}
}
