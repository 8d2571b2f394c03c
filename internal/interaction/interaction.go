// Package interaction implements DLRM's feature-interaction operator that
// combines the bottom-MLP output with the embedding-table outputs (§II): the
// self dot product, which computes per sample the Gram matrix of the stacked
// feature vectors — a batched GEMM — and keeps the strictly-lower triangle,
// concatenated after the dense features. Every Table I model uses it.
//
// The dot op runs that batched GEMM on internal/gemm's batch-reduce register
// tiles wherever gemm has a vector kernel: each worker gathers a sample's
// S+1 vectors into a contiguous (S+1)×E panel, forward is Z = X·Xᵀ and
// backward dX = G·X with G the symmetric, zero-diagonal image of the output
// gradient's triangle. Reduction-order contract (gemm's, inherited): every
// Z[i][j] is one chain of fused multiply-adds over e = 0…E−1 and every
// dX[i][e] one chain over j = 0…S (the bottom row's chain seeded with the
// dense slice of dOut), so results are bit-identical across AVX2 and
// AVX-512, across worker counts and across how samples are grouped into
// calls. Where gemm runs its Go kernel (other architectures, CPUs before
// AVX2 + FMA) the op runs plain Go loops over the pairs instead, which are
// also the tests' oracle; they round after every multiply, so the two agree
// to rounding only.
//
// The operator is allocation-free in steady state: per-worker scratch is
// cached on the operator and the parallel bodies are package-level functions
// dispatched through par.Pool.ForNArg.
package interaction

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/tensor"
)

// dotScratch is one worker's buffers, reused across calls so the hot loop
// does not allocate. The tile bodies use the panels, the Go bodies the
// pointer lists.
type dotScratch struct {
	// x is the sample's gathered (S+1)×E panel (row 0 the bottom feature)
	// and y a second panel of that size: Xᵀ (E×(S+1)) forward, dX
	// backward. z holds the Gram matrix; g the symmetric gradient matrix,
	// whose diagonal is never written and so stays zero.
	x, y, z, g []float32
	xw, xtw    tensor.Weights // headers over x and y for the blocked transpose
	// One-tile operand lists for gemm.BatchReduceKernel.
	fwdA, fwdB, bwdA, bwdB [1][]float32

	feats, grads [][]float32
}

// Dot is the self dot-product interaction over S sparse features plus the
// dense feature, all of dimension E. Its forward output per sample is the
// dense feature followed by the (S+1)·S/2 strictly-lower-triangular entries
// of the (S+1)×(S+1) Gram matrix.
type Dot struct {
	S, E int

	// tiles selects the gemm-tile bodies over the Go loops: set where gemm
	// detected a vector kernel at start-up and there is a pair to compute
	// (tests clear it to run the oracle).
	tiles bool

	// saved inputs for backward, one row per sample
	savedBottom []float32   // N×E
	savedEmb    [][]float32 // S slices of N×E
	n           int

	// per-worker scratch plus the per-call state the static bodies read
	ws         []dotScratch
	curOut     []float32
	curDOut    []float32
	curDBottom []float32
	curDEmb    [][]float32
}

// NewDot returns a Dot interaction for S embedding tables of dimension E.
func NewDot(s, e int) *Dot { return &Dot{S: s, E: e, tiles: s > 0 && gemm.KernelISA() != "go"} }

// OutputDim returns E + (S+1)·S/2.
func (d *Dot) OutputDim() int { return d.E + (d.S+1)*d.S/2 }

// NumPairs returns the number of interaction terms (S+1)·S/2.
func (d *Dot) NumPairs() int { return (d.S + 1) * d.S / 2 }

// ensureScratch sizes the per-worker scratch for the pool.
func (d *Dot) ensureScratch(workers int) {
	if len(d.ws) >= workers {
		return
	}
	ws := make([]dotScratch, workers)
	copy(ws, d.ws)
	m, e := d.S+1, d.E
	for i := len(d.ws); i < workers; i++ {
		w := &ws[i]
		if !d.tiles {
			w.feats = make([][]float32, m)
			w.grads = make([][]float32, m)
			continue
		}
		buf := make([]float32, 2*m*e+2*m*m)
		w.x, w.y, w.z, w.g = buf[:m*e], buf[m*e:2*m*e], buf[2*m*e:2*m*e+m*m], buf[2*m*e+m*m:]
		// x as one bc×bk = m×E weight block; its blocked transpose is Xᵀ.
		w.xw = tensor.Weights{K: e, C: m, BK: e, BC: m, Kb: 1, Cb: 1, Data: w.x}
		w.xtw = tensor.Weights{K: m, C: e, BK: m, BC: e, Kb: 1, Cb: 1, Data: w.y}
		// Forward needs rows 1…S of Z only: row 0 has no strictly-lower entry.
		w.fwdA[0], w.fwdB[0] = w.y, w.x[e:]
		w.bwdA[0], w.bwdB[0] = w.x, w.g
	}
	d.ws = ws
}

// gather copies sample smp's S+1 feature vectors into the panel x.
func (d *Dot) gather(x []float32, smp int) {
	e := d.E
	copy(x[:e], d.savedBottom[smp*e:(smp+1)*e])
	for t, z := range d.savedEmb {
		copy(x[(t+1)*e:(t+2)*e], z[smp*e:(smp+1)*e])
	}
}

// dotFwdTiles computes the interaction rows for samples [lo, hi) on gemm's
// register tiles: Z = X·Xᵀ, then the strictly-lower triangle row by row.
func dotFwdTiles(arg any, tid, lo, hi int) {
	d := arg.(*Dot)
	e, s, od := d.E, d.S, d.OutputDim()
	m := s + 1
	w := &d.ws[tid]
	for smp := lo; smp < hi; smp++ {
		d.gather(w.x, smp)
		w.xw.TransposeBlockedInto(&w.xtw)
		gemm.BatchReduceKernel(w.fwdA[:], w.fwdB[:], w.z[m:], s, e, m, true)
		row := d.curOut[smp*od : (smp+1)*od]
		copy(row[:e], w.x[:e])
		pos := e
		for i := 1; i <= s; i++ {
			copy(row[pos:pos+i], w.z[i*m:i*m+i])
			pos += i
		}
	}
}

// dotFwdGo is the forward in plain Go, one dot product per pair.
func dotFwdGo(arg any, tid, lo, hi int) {
	d := arg.(*Dot)
	e, s, od := d.E, d.S, d.OutputDim()
	bottom, emb, out := d.savedBottom, d.savedEmb, d.curOut
	// feats[i] points at row vector i of sample: 0=bottom, 1..S=tables.
	feats := d.ws[tid].feats
	for smp := lo; smp < hi; smp++ {
		feats[0] = bottom[smp*e : (smp+1)*e]
		for t := 0; t < s; t++ {
			feats[t+1] = emb[t][smp*e : (smp+1)*e]
		}
		row := out[smp*od : (smp+1)*od]
		copy(row[:e], feats[0])
		pos := e
		for i := 1; i <= s; i++ {
			fi := feats[i]
			for j := 0; j < i; j++ {
				fj := feats[j]
				var acc float32
				for k := 0; k < e; k++ {
					acc += fi[k] * fj[k]
				}
				row[pos] = acc
				pos++
			}
		}
	}
}

// Forward computes the interaction for a minibatch. bottom is N×E row-major
// (the bottom-MLP output); emb[t] is N×E row-major (table t's bag outputs).
// out must hold N×OutputDim().
func (d *Dot) Forward(p *par.Pool, n int, bottom []float32, emb [][]float32, out []float32) {
	d.check(n, bottom, emb)
	od := d.OutputDim()
	if len(out) != n*od {
		panic(fmt.Sprintf("interaction: out len %d want %d", len(out), n*od))
	}
	d.savedBottom, d.savedEmb, d.n = bottom, emb, n
	d.ensureScratch(p.NumWorkers())
	d.curOut = out
	if d.tiles {
		p.ForNArg(n, dotFwdTiles, d)
	} else {
		p.ForNArg(n, dotFwdGo, d)
	}
	d.curOut = nil
}

// dotBwdTiles distributes the output gradient for samples [lo, hi) on
// gemm's register tiles: out[pos] = <f_i, f_j> ⇒ dX = G·X with G[i][j] =
// G[j][i] = dOut[pos], continuing from dX's bottom row = the dense slice of
// dOut (the concat part).
func dotBwdTiles(arg any, tid, lo, hi int) {
	d := arg.(*Dot)
	e, s, od := d.E, d.S, d.OutputDim()
	m := s + 1
	w := &d.ws[tid]
	g, dx := w.g, w.y
	for smp := lo; smp < hi; smp++ {
		d.gather(w.x, smp)
		row := d.curDOut[smp*od : (smp+1)*od]
		pos := e
		for i := 1; i <= s; i++ {
			tri := row[pos : pos+i]
			copy(g[i*m:], tri)
			for j, col := 0, g[i:]; j < i; j++ {
				col[j*m] = tri[j]
			}
			pos += i
		}
		copy(dx[:e], row[:e])
		clear(dx[e:])
		gemm.BatchReduceKernel(w.bwdA[:], w.bwdB[:], dx, m, m, e, false)
		copy(d.curDBottom[smp*e:(smp+1)*e], dx[:e])
		for t, dz := range d.curDEmb {
			copy(dz[smp*e:(smp+1)*e], dx[(t+1)*e:(t+2)*e])
		}
	}
}

// dotBwdGo is the backward in plain Go, two axpys per pair.
func dotBwdGo(arg any, tid, lo, hi int) {
	d := arg.(*Dot)
	e, s, od := d.E, d.S, d.OutputDim()
	bottom, emb := d.savedBottom, d.savedEmb
	dOut, dBottom, dEmb := d.curDOut, d.curDBottom, d.curDEmb
	feats, grads := d.ws[tid].feats, d.ws[tid].grads
	for smp := lo; smp < hi; smp++ {
		feats[0] = bottom[smp*e : (smp+1)*e]
		grads[0] = dBottom[smp*e : (smp+1)*e]
		for t := 0; t < s; t++ {
			feats[t+1] = emb[t][smp*e : (smp+1)*e]
			grads[t+1] = dEmb[t][smp*e : (smp+1)*e]
		}
		row := dOut[smp*od : (smp+1)*od]
		// Concat part: dBottom starts as the dense slice of dOut.
		copy(grads[0], row[:e])
		for t := 1; t <= s; t++ {
			clear(grads[t])
		}
		// Dot part: out[pos] = <f_i, f_j> ⇒ df_i += g·f_j, df_j += g·f_i.
		pos := e
		for i := 1; i <= s; i++ {
			fi, gi := feats[i], grads[i]
			for j := 0; j < i; j++ {
				fj, gj := feats[j], grads[j]
				g := row[pos]
				pos++
				for k := 0; k < e; k++ {
					gi[k] += g * fj[k]
					gj[k] += g * fi[k]
				}
			}
		}
	}
}

// Backward consumes dOut (N×OutputDim) and writes gradients for the bottom
// feature (dBottom, N×E) and each table output (dEmb[t], N×E). The buffers
// must be preallocated; they are overwritten, not accumulated into.
func (d *Dot) Backward(p *par.Pool, dOut, dBottom []float32, dEmb [][]float32) {
	n, e, s := d.n, d.E, d.S
	od := d.OutputDim()
	if len(dOut) != n*od || len(dBottom) != n*e || len(dEmb) != s {
		panic("interaction: backward size mismatch")
	}
	for t, dz := range dEmb {
		if len(dz) != n*e {
			panic(fmt.Sprintf("interaction: backward table %d len %d want %d", t, len(dz), n*e))
		}
	}
	d.ensureScratch(p.NumWorkers())
	d.curDOut, d.curDBottom, d.curDEmb = dOut, dBottom, dEmb
	if d.tiles {
		p.ForNArg(n, dotBwdTiles, d)
	} else {
		p.ForNArg(n, dotBwdGo, d)
	}
	d.curDOut, d.curDBottom, d.curDEmb = nil, nil, nil
}

func (d *Dot) check(n int, bottom []float32, emb [][]float32) {
	if len(bottom) != n*d.E {
		panic(fmt.Sprintf("interaction: bottom len %d want %d", len(bottom), n*d.E))
	}
	if len(emb) != d.S {
		panic(fmt.Sprintf("interaction: got %d tables want %d", len(emb), d.S))
	}
	for t, z := range emb {
		if len(z) != n*d.E {
			panic(fmt.Sprintf("interaction: table %d len %d want %d", t, len(z), n*d.E))
		}
	}
}
