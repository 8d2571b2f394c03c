// Package gemm implements the matrix-multiplication engines behind the MLP
// layers: the batch-reduce GEMM micro-kernel and the blocked fully-connected
// kernels of Algorithm 5 (forward, backward-by-data, backward-by-weights),
// plus the two baselines the paper's Fig. 5 compares against (a Facebook
// style thread-blocked GEMM and a PyTorch/MKL style large multithreaded
// GEMM).
//
// All fast paths operate on the blocked layouts from internal/tensor:
//
//	weights     W  [Kb][Cb][bc][bk]
//	activations X  [Cb][Nb][bn][bc]
//	outputs     Y  [Kb][Nb][bn][bk]   (the Acts layout of the next layer)
//
// One micro-kernel, batchReduce (kernel.go), serves all three passes. On
// amd64 it runs hand-written register tiles (brgemm_amd64.s: AVX-512F where
// CPUID and XCR0 report it, else AVX2+FMA, chosen once at init — see
// KernelISA); elsewhere, and as the test oracle, a portable Go loop. The
// tensors are read in place: there is no packing buffer.
//
// The blocked kernels are allocation-free in steady state: per-worker tile
// pointer lists (Scratch) are cached on the pool via par.Attached, and the
// parallel bodies are package-level functions dispatched through
// par.Pool.ForNArg with a persistent per-pool argument block, so repeated
// calls perform zero heap allocations (asserted by the allocation-regression
// tests).
package gemm

import (
	"fmt"
	"sync"

	"repro/internal/par"
	"repro/internal/tensor"
)

// BatchReduceKernel performs the batch-reduce GEMM micro-kernel:
//
//	out[bn][bk] += Σ_i  B_i(bn×bc) · A_i(bc×bk)
//
// where A_i are weight tiles (input-feature major, output contiguous) and
// B_i are activation tiles (sample major, input-feature contiguous). Like
// the paper's JIT-ed kernel it keeps the output tile in vector registers
// across the whole reduction and carries no data-dependent branches; see
// batchReduce for the dispatch and the reduction-order contract.
//
// If zeroOut is true the output tile is cleared before accumulation.
func BatchReduceKernel(aTiles, bTiles [][]float32, out []float32, bn, bc, bk int, zeroOut bool) {
	batchReduce(aTiles, bTiles, out, bn, bc, bk, bc, 1, zeroOut)
}

// BatchReduceKernelSkipZeros is BatchReduceKernel. It used to test each
// activation scalar for zero; a register tile shares every loaded weight
// vector between four rows, so a zero scalar no longer has a load to skip,
// and the dense kernel is the faster one on every workload measured
// (docs/PERF.md). The name stays for callers that select it.
func BatchReduceKernelSkipZeros(aTiles, bTiles [][]float32, out []float32, bn, bc, bk int, zeroOut bool) {
	BatchReduceKernel(aTiles, bTiles, out, bn, bc, bk, zeroOut)
}

// Scratch holds per-worker tile pointer lists so the hot loop does not
// allocate. Capacity is the reduction block count; it grows monotonically
// and is cached per (pool, worker) across calls.
type Scratch struct {
	A, B [][]float32
}

// newScratch returns a Scratch able to hold n tiles.
func newScratch(n int) *Scratch {
	return &Scratch{A: make([][]float32, n), B: make([][]float32, n)}
}

// gemmKey identifies this package's per-pool kernel state.
var gemmKey = par.NewStateKey("gemm")

// poolState is the per-pool kernel state: cached per-worker scratch plus the
// argument blocks the static parallel bodies read. mu serializes kernels
// submitted to the same pool from different goroutines (e.g. simulated
// ranks sharing a compute pool).
type poolState struct {
	mu      sync.Mutex
	scratch []*Scratch
	fwd     fwdArgs
	bwdW    bwdWArgs
}

func newPoolState(p *par.Pool) any {
	return &poolState{scratch: make([]*Scratch, p.NumWorkers())}
}

func state(p *par.Pool) *poolState {
	return p.Attached(gemmKey, newPoolState).(*poolState)
}

// worker returns tid's cached Scratch resized to hold n tiles.
func (st *poolState) worker(tid, n int) *Scratch {
	s := st.scratch[tid]
	if s == nil || cap(s.A) < n {
		s = newScratch(n)
		st.scratch[tid] = s
	}
	s.A, s.B = s.A[:n], s.B[:n]
	return s
}

// Epilogue finishes freshly computed output values in the worker that
// produced them, while they are still in L1 — the paper's fused bias +
// activation. Apply receives rows×bk values of output-feature block kb,
// row-major with stride bk, after their reduction is complete.
type Epilogue interface {
	Apply(kb int, blk []float32, rows int)
}

// fwdArgs carries one Forward call's parameters to the static body.
type fwdArgs struct {
	st     *poolState
	w      *tensor.Weights
	x, y   *tensor.Acts
	ep     Epilogue
	rows   int // samples per task
	chunks int // tasks per output-feature block: ceil(N / rows)
}

// smallBNRows is the task height Forward uses when the tensors' own bn is
// below the 4-row register tile (serving runs bn = 1).
const smallBNRows = 16

func fwdBody(arg any, tid, lo, hi int) {
	a := arg.(*fwdArgs)
	w, x, y := a.w, a.x, a.y
	s := a.st.worker(tid, w.Cb)
	n, bc, bk := x.N, w.BC, w.BK
	for i := lo; i < hi; i++ {
		kb, n0 := i/a.chunks, i%a.chunks*a.rows
		rows := min(a.rows, n-n0)
		for j := range s.A {
			s.A[j] = w.Block(kb, j)
			s.B[j] = x.Data[(j*n+n0)*bc : (j*n+n0+rows)*bc]
		}
		out := y.Data[(kb*n+n0)*bk : (kb*n+n0+rows)*bk]
		batchReduce(s.A, s.B, out, rows, bc, bk, bc, 1, true)
		if a.ep != nil {
			a.ep.Apply(kb, out, rows)
		}
	}
}

// Forward computes Y = X · Wᵀ over blocked tensors (logical Y[N×K] from
// X[N×C] and W[K×C]) following Algorithm 5: each worker owns a set of output
// blocks, gathers the A/B tile pointer lists over the reduction dimension
// Cb, and issues one batch-reduce GEMM per output block.
//
// In the [Cb][Nb][bn][bc] layout the samples of one feature block are
// contiguous across its Nb tiles, so an output block may span any run of
// samples: bn of them normally, smallBNRows when bn is too small to fill a
// register tile. By the kernel's reduction-order contract the result does
// not depend on that choice.
func Forward(p *par.Pool, w *tensor.Weights, x *tensor.Acts, y *tensor.Acts) {
	ForwardFused(p, w, x, y, nil)
}

// ForwardSkipZeros is Forward; see BatchReduceKernelSkipZeros.
func ForwardSkipZeros(p *par.Pool, w *tensor.Weights, x *tensor.Acts, y *tensor.Acts) {
	Forward(p, w, x, y)
}

// ForwardFused is Forward with ep (when non-nil) applied to every output
// block right after its batch-reduce, by the same worker. Fused and
// Forward-then-sweep results are identical bit for bit: the kernel stores
// the finished sum and ep reads it back.
func ForwardFused(p *par.Pool, w *tensor.Weights, x *tensor.Acts, y *tensor.Acts, ep Epilogue) {
	if x.C != w.C || x.BC != w.BC {
		panic(fmt.Sprintf("gemm: forward C mismatch x(C=%d,bc=%d) w(C=%d,bc=%d)", x.C, x.BC, w.C, w.BC))
	}
	if y.N != x.N || y.BN != x.BN || y.C != w.K || y.BC != w.BK {
		panic(fmt.Sprintf("gemm: forward Y shape mismatch y(N=%d,C=%d) want (N=%d,K=%d)", y.N, y.C, x.N, w.K))
	}
	st := state(p)
	st.mu.Lock()
	defer st.mu.Unlock() // deferred so a panicking kernel cannot wedge the state
	a := &st.fwd
	a.st, a.w, a.x, a.y, a.ep = st, w, x, y, ep
	a.rows = x.BN
	if a.rows < 4 {
		a.rows = smallBNRows
	}
	a.chunks = (x.N + a.rows - 1) / a.rows
	p.ForNArg(w.Kb*a.chunks, fwdBody, a)
	a.w, a.x, a.y, a.ep = nil, nil, nil, nil
}

// BackwardData computes dX = dY · W over blocked tensors (logical dX[N×C]
// from dY[N×K] and W[K×C]). It reuses the forward kernel with the logically
// transposed weights; callers that run many iterations should pre-transpose
// once per weight update via tensor.Weights.TransposeBlocked.
func BackwardData(p *par.Pool, wT *tensor.Weights, dy *tensor.Acts, dx *tensor.Acts) {
	// wT is W transposed: logical C×K blocked [Cb][Kb][bk][bc].
	ForwardFused(p, wT, dy, dx, nil)
}

// BackwardDataSkipZeros is BackwardData; see BatchReduceKernelSkipZeros.
func BackwardDataSkipZeros(p *par.Pool, wT *tensor.Weights, dy *tensor.Acts, dx *tensor.Acts) {
	BackwardData(p, wT, dy, dx)
}

// bwdWArgs carries one BackwardWeights call's parameters to the static body.
type bwdWArgs struct {
	st    *poolState
	dy, x *tensor.Acts
	dw    *tensor.Weights
}

// bwdWBody computes dW blocks with the forward kernel, the reduction now
// running over samples: block (kb, cb) is out[ci][ki] = Σ_n X[n][ci] ·
// dY[n][ki], i.e. batchReduce with A = dY's feature block kb, B = X's
// feature block cb read down its columns (sbm = 1, sbr = bc). The Nb tiles
// of a feature block are contiguous, so the batch is one tile of N rows.
func bwdWBody(arg any, tid, lo, hi int) {
	a := arg.(*bwdWArgs)
	dy, x, dw := a.dy, a.x, a.dw
	s := a.st.worker(tid, 1)
	n, bc, bk := x.N, dw.BC, dw.BK
	for i := lo; i < hi; i++ {
		kb, cb := i/dw.Cb, i%dw.Cb
		s.A[0] = dy.Data[kb*n*bk : (kb+1)*n*bk]
		s.B[0] = x.Data[cb*n*bc : (cb+1)*n*bc]
		batchReduce(s.A, s.B, dw.Block(kb, cb), bc, n, bk, 1, bc, true)
	}
}

// BackwardWeights computes dW = dYᵀ · X over blocked tensors (logical
// dW[K×C] from dY[N×K] and X[N×C]), reducing over the minibatch dimension.
// The activation layout [Cb][Nb][bn][bc] was chosen precisely so this pass
// sees the same contiguous tile accesses as the forward pass.
func BackwardWeights(p *par.Pool, dy *tensor.Acts, x *tensor.Acts, dw *tensor.Weights) {
	if dy.N != x.N || dy.BN != x.BN {
		panic("gemm: backwardWeights N mismatch")
	}
	if dw.K != dy.C || dw.BK != dy.BC || dw.C != x.C || dw.BC != x.BC {
		panic("gemm: backwardWeights dW shape mismatch")
	}
	st := state(p)
	st.mu.Lock()
	defer st.mu.Unlock()
	a := &st.bwdW
	a.st, a.dy, a.x, a.dw = st, dy, x, dw
	p.ForNArg(dw.Kb*dw.Cb, bwdWBody, a)
	a.dy, a.x, a.dw = nil, nil, nil
}

// BackwardWeightsSkipZeros is BackwardWeights; see
// BatchReduceKernelSkipZeros.
func BackwardWeightsSkipZeros(p *par.Pool, dy *tensor.Acts, x *tensor.Acts, dw *tensor.Weights) {
	BackwardWeights(p, dy, x, dw)
}
