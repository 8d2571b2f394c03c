// Package mlp builds multi-layer perceptrons from the blocked GEMM kernels:
// fully-connected layers with bias and activation fused into the GEMM
// epilogue (applied to each output block by the worker that just computed
// it, while the block is hot in cache, as the paper's kernel does), the
// three training passes (forward, backward-by-data, backward-by-weights),
// and a stack type used for DLRM's bottom and top MLPs.
package mlp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/sweep"
	"repro/internal/tensor"
)

// Activation selects the fused epilogue of a fully-connected layer; the
// epilogue sweeps themselves are internal/sweep's.
type Activation = sweep.Act

const (
	// None leaves the GEMM output linear (used before a fused
	// sigmoid+cross-entropy loss).
	None = sweep.Linear
	// ReLU clamps negatives to zero.
	ReLU = sweep.ReLU
	// Sigmoid applies the logistic function.
	Sigmoid = sweep.Sigmoid
)

// BlockPick returns the largest block size ≤ cap that divides dim. The
// paper's configs are mostly powers of two; MLPerf's 13 dense features and
// final K=1 are narrower than a block and become one block of their own
// width. A wide dimension with no usable divisor (a prime, such as MLPerf's
// top-MLP input 479) would block at 1 — see padWidth for how layers avoid it.
func BlockPick(dim, cap int) int {
	if dim <= 0 {
		panic(fmt.Sprintf("mlp: BlockPick dim=%d", dim))
	}
	for b := cap; b > 1; b-- {
		if dim%b == 0 {
			return b
		}
	}
	return 1
}

// padWidth returns the physical width an MLP stores for a logical input
// width: the width itself when it fits one block or BlockPick finds a block
// of at least 8, otherwise the next multiple of 16 (383 → 384, 479 → 480).
// The extra columns hold zeros — see Layer.
func padWidth(dim int) int {
	if dim <= 64 || BlockPick(dim, 64) >= 8 {
		return dim
	}
	return (dim + 15) &^ 15
}

// Layer is one fully-connected layer y = act(W·x + bias) over blocked
// tensors, with storage for the gradients the optimizer consumes.
//
// Layers own their activation workspaces: Forward writes into a per-layer
// output tensor reused across calls (reallocated only when the minibatch
// shape changes), and Backward likewise reuses per-layer dz/dx tensors.
// Consequently the tensor returned by Forward is overwritten by the next
// Forward call on the same layer — callers that need to retain an output
// across steps must Clone it.
//
// C is the logical input width. W, DW and the input / dX tensors are W.C
// wide, which exceeds C where padWidth pads: the extra input columns are
// zero (tensor.Acts.PackFrom writes them), the extra weight columns start at
// zero and their gradients Σ_n dz·0 are exactly zero, so SGD and a gradient
// allreduce leave them zero. A zero column adds fma(0·w + acc) = acc to a
// reduction chain whose order over c does not depend on bc, so a padded
// layer computes bit for bit what the unpadded one does on the vector
// kernels.
type Layer struct {
	C, K       int // input/output features
	BN, BC, BK int // block sizes (BN fixed by the owning MLP)
	Act        Activation

	// SparseInput records that the layer's input activations carry many
	// exact zeros (the output of an upstream ReLU). The register-tiled
	// GEMM kernel is dense whatever the input, so nothing in this package
	// branches on it any more; measurement code reads it to build inputs
	// of the matching sparsity.
	SparseInput bool

	W    *tensor.Weights
	Bias []float32

	// Gradients written by Backward.
	DW    *tensor.Weights
	DBias []float32

	// Cached transpose for backward-by-data; re-transposed in place after
	// every weight change (see InvalidateTranspose).
	wT      *tensor.Weights
	wTValid bool

	// Saved forward tensors for backward.
	savedX *tensor.Acts
	savedY *tensor.Acts

	// Reused workspaces (see type comment) and the per-call state the
	// static parallel bodies read; keeping the bodies package-level
	// functions and the state on the layer makes the hot path
	// allocation-free (no closure captures).
	y, dz, dx *tensor.Acts
	dy        *tensor.Acts // Backward's incoming gradient, for dzBody
}

// NewLayer constructs a layer with Kaiming-uniform init (scale 1/√C), which
// the convergence experiments need to reach reference accuracy. Its input
// is padWidth(c) wide.
func NewLayer(c, k, bn int, act Activation, rng *rand.Rand) *Layer {
	return newLayer(c, padWidth(c), k, bn, act, rng)
}

// newLayer builds a layer of logical input width c stored pc wide. W's flat
// order is (kb, input column, k within block) whatever bc is, so drawing
// only the logical columns consumes the same random values, in the same
// order, as the unpadded layout.
func newLayer(c, pc, k, bn int, act Activation, rng *rand.Rand) *Layer {
	bc := BlockPick(pc, 64)
	bk := BlockPick(k, 64)
	l := &Layer{
		C: c, K: k, BN: bn, BC: bc, BK: bk, Act: act,
		W:     tensor.NewWeights(k, pc, bk, bc),
		Bias:  make([]float32, k),
		DW:    tensor.NewWeights(k, pc, bk, bc),
		DBias: make([]float32, k),
	}
	scale := float32(1 / math.Sqrt(float64(c)))
	for r := 0; r*bk < len(l.W.Data); r++ {
		if r%pc >= c {
			continue
		}
		row := l.W.Data[r*bk : (r+1)*bk]
		for i := range row {
			row[i] = (rng.Float32()*2 - 1) * scale
		}
	}
	for i := range l.Bias {
		l.Bias[i] = (rng.Float32()*2 - 1) * scale
	}
	return l
}

// InvalidateTranspose marks the cached Wᵀ stale; the optimizer must call
// this after mutating W. The transpose buffer itself is
// kept and rewritten in place on the next backward-by-data pass.
func (l *Layer) InvalidateTranspose() { l.wTValid = false }

// transposed returns the cached blocked transpose of W, re-transposing into
// the persistent buffer (block ranges over the pool) when stale.
func (l *Layer) transposed(p *par.Pool) *tensor.Weights {
	if !l.wTValid {
		if l.wT == nil {
			l.wT = tensor.NewWeights(l.W.C, l.W.K, l.W.BC, l.W.BK)
		}
		p.ForNArg(l.W.Kb*l.W.Cb, transposeBody, l)
		l.wTValid = true
	}
	return l.wT
}

func transposeBody(arg any, tid, lo, hi int) {
	l := arg.(*Layer)
	l.W.TransposeBlocksInto(l.wT, lo, hi)
}

// Forward computes y = act(W·x + bias). The input tensor is retained until
// the next Backward call; the returned output is a per-layer workspace
// overwritten by the next Forward.
func (l *Layer) Forward(p *par.Pool, x *tensor.Acts) *tensor.Acts {
	if x.C != l.W.C {
		panic(fmt.Sprintf("mlp: layer forward C=%d want %d", x.C, l.W.C))
	}
	y := tensor.EnsureActs(&l.y, x.N, l.K, x.BN, l.BK)
	gemm.ForwardFused(p, l.W, x, y, (*biasAct)(l))
	l.savedX = x
	l.savedY = y
	return y
}

// biasAct is a Layer seen as its GEMM epilogue.
type biasAct Layer

// Apply adds the bias and applies the activation to rows×bk finished
// outputs of feature block kb. The bias is added to the stored sum, not
// folded into the reduction, so the fused result equals a separate sweep
// over the plain GEMM output bit for bit.
func (l *biasAct) Apply(kb int, blk []float32, rows int) {
	sweep.Bias(blk, l.Bias[kb*l.BK:(kb+1)*l.BK], rows, l.Act)
}

// Backward consumes dY (gradient w.r.t. the activated output), writes DW and
// DBias, and returns dX. When wantDX is false (first layer of the bottom
// MLP) the backward-by-data GEMM is skipped. The returned dX is a per-layer
// workspace overwritten by the next Backward.
func (l *Layer) Backward(p *par.Pool, dy *tensor.Acts, wantDX bool) *tensor.Acts {
	if l.savedX == nil || l.savedY == nil {
		panic("mlp: Backward before Forward")
	}
	y := l.savedY
	if dy.N != y.N || dy.C != y.C || dy.BN != y.BN || dy.BC != y.BC {
		panic(fmt.Sprintf("mlp: Backward dy %dx%d/%dx%d, forward output %dx%d/%dx%d",
			dy.N, dy.C, dy.BN, dy.BC, y.N, y.C, y.BN, y.BC))
	}
	// dz = dy ⊙ act'(y) goes to the layer's workspace so callers may reuse
	// their gradient tensor.
	dz := tensor.EnsureActs(&l.dz, dy.N, dy.C, dy.BN, dy.BC)
	l.dy = dy
	p.ForNArg(dz.Cb, dzBody, l)
	l.dy = nil

	gemm.BackwardWeights(p, dz, l.savedX, l.DW)
	if !wantDX {
		return nil
	}
	dx := tensor.EnsureActs(&l.dx, dz.N, l.W.C, dz.BN, l.BC)
	gemm.BackwardData(p, l.transposed(p), dz, dx)
	return dx
}

// dzBody is the backward epilogue for the feature blocks in [lo, hi): one
// sweep writes dz = dy ⊙ act'(y) from the saved output and accumulates
// DBias[k] = Σ_n dz[n][k], in sample order.
func dzBody(arg any, tid, lo, hi int) {
	l := arg.(*Layer)
	bk, per := l.dz.BC, l.dz.N*l.dz.BC // a feature block's samples are contiguous
	for kb := lo; kb < hi; kb++ {
		sweep.Grad(l.dz.Data[kb*per:(kb+1)*per], l.dy.Data[kb*per:(kb+1)*per],
			l.savedY.Data[kb*per:(kb+1)*per], l.DBias[kb*bk:(kb+1)*bk], l.Act)
	}
}

// MLP is a stack of fully-connected layers sharing a minibatch blocking.
type MLP struct {
	Sizes  []int // len = layers+1: input, hidden..., output
	BN     int
	Layers []*Layer
}

// New builds an MLP with the given feature sizes (sizes[0] is the input
// width). All layers use hiddenAct except the last, which uses lastAct.
// bn is the minibatch block size; the minibatch N passed to Forward must be
// divisible by it.
func New(sizes []int, bn int, hiddenAct, lastAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	return newMLP(sizes, bn, hiddenAct, lastAct, rng, padWidth(sizes[0]))
}

// newMLP is New with the stack's input stored pc wide. Only that input is
// ever padded: a hidden width arrives in the tiles the previous layer wrote.
func newMLP(sizes []int, bn int, hiddenAct, lastAct Activation, rng *rand.Rand, pc int) *MLP {
	m := &MLP{Sizes: sizes, BN: bn}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = lastAct
		}
		l := newLayer(sizes[i], pc, sizes[i+1], bn, act, rng)
		l.SparseInput = i > 0 && hiddenAct == ReLU
		m.Layers = append(m.Layers, l)
		pc = sizes[i+1]
	}
	return m
}

// Forward runs the stack on a dense N×C input and returns the blocked
// output.
func (m *MLP) Forward(p *par.Pool, x *tensor.Acts) *tensor.Acts {
	cur := x
	for _, l := range m.Layers {
		cur = l.Forward(p, cur)
	}
	return cur
}

// PackInput packs a dense N×Sizes[0] input into *buf shaped as the stack's
// blocked input — the first layer's stored width and block — reusing its
// storage (see tensor.EnsureActs).
func (m *MLP) PackInput(buf **tensor.Acts, x *tensor.Dense) *tensor.Acts {
	if x.Cols != m.Sizes[0] {
		panic(fmt.Sprintf("mlp: input has %d columns, want %d", x.Cols, m.Sizes[0]))
	}
	l := m.Layers[0]
	in := tensor.EnsureActs(buf, x.Rows, l.W.C, m.BN, l.BC)
	in.PackFrom(x)
	return in
}

// ForwardDense packs a dense input and runs Forward.
func (m *MLP) ForwardDense(p *par.Pool, x *tensor.Dense) *tensor.Acts {
	var in *tensor.Acts
	return m.Forward(p, m.PackInput(&in, x))
}

// Backward runs the stack's backward passes from the output gradient,
// filling every layer's DW/DBias. When wantDX is true the gradient w.r.t.
// the network input is returned (DLRM needs it for the bottom MLP→embedding
// interaction path).
func (m *MLP) Backward(p *par.Pool, dy *tensor.Acts, wantDX bool) *tensor.Acts {
	cur := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		cur = m.BackwardLayer(p, i, cur, wantDX || i > 0)
	}
	return cur
}

// BackwardLayer runs layer i's backward pass alone: dy is the gradient
// w.r.t. that layer's activated output, and the returned dX (nil when
// wantDX is false) feeds layer i−1. Callers driving the stack manually must
// step layers from last to first, as Backward does.
func (m *MLP) BackwardLayer(p *par.Pool, i int, dy *tensor.Acts, wantDX bool) *tensor.Acts {
	return m.Layers[i].Backward(p, dy, wantDX)
}

// VisitParams calls fn for every parameter tensor (weights then bias, per
// layer). Distributed trainers and alternative optimizers use this to
// enumerate state.
func (m *MLP) VisitParams(fn func(name string, p []float32)) {
	for i, l := range m.Layers {
		fn(fmt.Sprintf("layer%d.W", i), l.W.Data)
		fn(fmt.Sprintf("layer%d.b", i), l.Bias)
	}
}

// InvalidateTransposes drops every layer's cached Wᵀ; callers that mutate
// weights through VisitParams must invoke it.
func (m *MLP) InvalidateTransposes() {
	for _, l := range m.Layers {
		l.InvalidateTranspose()
	}
}
