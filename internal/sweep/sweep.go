// Package sweep holds the element-wise passes of an MLP training step that
// surround its GEMMs: the blocked weight transpose backward-by-data reads,
// the FP32 SGD update, the forward bias + activation epilogue and the
// backward dz = dy ⊙ act′(y) / bias-gradient sweep.
//
// Each sweep has one Go body — the path on machines without a vector
// kernel and the oracle the vector kernels are tested against — and, on
// amd64, AVX-512F and AVX2 bodies in sweep_amd64.s. Every sweep is a copy or
// an element-wise chain whose roundings the Go body fixes, so every kernel
// gives the Go body's bits exactly, NaNs, signed zeros and denormals
// included:
//
//   - Transpose is a copy.
//   - SGD is p − round(lr·g): a multiply, then a subtract, never a fused
//     multiply-add; each element is independent, so any partition of the
//     range gives the same bits.
//   - Bias adds the bias to a finished sum (never folded into the
//     reduction); ReLU is Go's max(v, 0), which the kernels reproduce as
//     VMAXPS(0, v) + 0: a NaN passes through and −0 becomes +0.
//   - Grad writes dz and sums the bias gradient per column from +0 in
//     sample order.
//
// The kernel is chosen once at start-up from what internal/cpu detects;
// there is no selector.
package sweep

import (
	"fmt"
	"math"
)

// Act is the activation a Bias or Grad sweep applies; mlp.Activation is
// this type.
type Act int

const (
	// Linear leaves the value as it is.
	Linear Act = iota
	// ReLU clamps negatives (and −0) to +0.
	ReLU
	// Sigmoid applies the logistic function; it always runs the Go body.
	Sigmoid
)

// kernelSet is one ISA's sweep bodies; see sweep_amd64.s. The wrappers
// below check every extent before a pointer reaches assembly.
type kernelSet struct {
	isa string
	// tile is the register transpose's edge: transpose moves the full
	// tile×tile squares of a bc×bk block, the Go body the edge strips.
	tile      int
	transpose func(dst, src *float32, bc, bk int)
	sgd       func(p, g *float32, n int, lr float32)
	bias      func(blk, bias *float32, rows, bk int, relu bool)
	grad      func(dz, dy, y, db *float32, rows, bk int, relu bool)
}

// kernels lists the vector kernels this machine can run, best first;
// kernel is the one every sweep in the process uses, nil meaning the Go
// bodies. Both are set once here; only tests assign kernel afterwards.
var (
	kernels = detectKernels()
	kernel  = firstKernel(kernels)
)

func firstKernel(ks []*kernelSet) *kernelSet {
	if len(ks) == 0 {
		return nil
	}
	return ks[0]
}

// KernelISA names the kernel the sweeps run on: "avx512", "avx2", or "go".
func KernelISA() string {
	if kernel == nil {
		return "go"
	}
	return kernel.isa
}

// Transpose writes the transpose of one bc×bk weight block into dst:
// dst[ki·bc+ci] = src[ci·bk+ki] for ci < bc, ki < bk.
func Transpose(dst, src []float32, bc, bk int) {
	if bc <= 0 || bk <= 0 || len(src) < bc*bk || len(dst) < bc*bk {
		panic(fmt.Sprintf("sweep: Transpose %dx%d from %d into %d floats", bc, bk, len(src), len(dst)))
	}
	k := kernel
	if k == nil || bc < k.tile || bk < k.tile {
		transposeGo(dst, src, bc, bk, 0, bc, 0, bk)
		return
	}
	k.transpose(&dst[0], &src[0], bc, bk)
	tc, tk := bc&^(k.tile-1), bk&^(k.tile-1)
	transposeGo(dst, src, bc, bk, tc, bc, 0, bk)
	transposeGo(dst, src, bc, bk, 0, tc, tk, bk)
}

// transposeGo transposes the rows ci ∈ [c0, c1) and columns ki ∈ [k0, k1)
// of a bc×bk block.
func transposeGo(dst, src []float32, bc, bk, c0, c1, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	// 4×4 sub-tiles: each pass reads four source rows and writes four
	// destination rows a quarter cache line at a time, instead of striding
	// one element through bk destination lines.
	ci := c0
	for ; ci+4 <= c1; ci += 4 {
		s0 := src[ci*bk+k0 : ci*bk+k1]
		s1 := src[(ci+1)*bk+k0 : (ci+1)*bk+k1][:len(s0)]
		s2 := src[(ci+2)*bk+k0 : (ci+2)*bk+k1][:len(s0)]
		s3 := src[(ci+3)*bk+k0 : (ci+3)*bk+k1][:len(s0)]
		for j := range s0 {
			o := (k0+j)*bc + ci
			d := dst[o : o+4 : o+4]
			d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
		}
	}
	for ; ci < c1; ci++ {
		for j, v := range src[ci*bk+k0 : ci*bk+k1] {
			dst[(k0+j)*bc+ci] = v
		}
	}
}

// SGD applies p[i] −= lr·g[i] for i < len(p), the product rounded to
// float32 before the subtraction; g must be at least as long as p.
func SGD(p, g []float32, lr float32) {
	if len(g) < len(p) {
		panic(fmt.Sprintf("sweep: SGD over %d params with %d gradients", len(p), len(g)))
	}
	if k := kernel; k != nil && len(p) > 0 {
		k.sgd(&p[0], &g[0], len(p), lr)
		return
	}
	sgdGo(p, g, lr)
}

// sgdGo converts the product explicitly: that forbids fusing it into the
// subtraction, so an update is two roundings on every architecture.
func sgdGo(p, g []float32, lr float32) {
	g = g[:len(p)]
	for i := range p {
		p[i] -= float32(lr * g[i])
	}
}

// Bias finishes rows×bk outputs in blk (row-major, bk = len(bias)): it adds
// bias[i] to column i of every row, then applies act.
func Bias(blk, bias []float32, rows int, act Act) {
	bk := len(bias)
	if rows < 0 || len(blk) < rows*bk {
		panic(fmt.Sprintf("sweep: Bias %dx%d over %d floats", rows, bk, len(blk)))
	}
	if k := kernel; k != nil && act != Sigmoid && rows > 0 && bk > 0 {
		k.bias(&blk[0], &bias[0], rows, bk, act == ReLU)
		return
	}
	biasGo(blk, bias, rows, act)
}

func biasGo(blk, bias []float32, rows int, act Act) {
	bk := len(bias)
	for ni := 0; ni < rows; ni++ {
		row := blk[ni*bk : (ni+1)*bk]
		switch act {
		case Linear:
			for i := range row {
				row[i] += bias[i]
			}
		case ReLU:
			// max, not a branch: the sign of a pre-activation is a coin
			// flip the predictor loses half the time (5× slower).
			for i := range row {
				row[i] = max(row[i]+bias[i], 0)
			}
		case Sigmoid:
			for i := range row {
				row[i] = sigmoid32(row[i] + bias[i])
			}
		}
	}
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Grad is the backward epilogue of one feature block: rows×bk values
// (row-major, bk = len(db)) of the incoming gradient dy and the saved
// output y give dz = dy ⊙ act′(y), and db[i] = Σ_n dz[n][i], summed from +0
// in sample order. ReLU′ is 1 where y > 0 or y is NaN and 0 elsewhere, so a
// clamped sample contributes +0.
func Grad(dz, dy, y, db []float32, act Act) {
	bk := len(db)
	n := len(dz)
	if bk == 0 || n%bk != 0 || len(dy) < n || len(y) < n {
		panic(fmt.Sprintf("sweep: Grad over %d floats of width %d (dy %d, y %d)", n, bk, len(dy), len(y)))
	}
	if k := kernel; k != nil && act != Sigmoid && n > 0 {
		k.grad(&dz[0], &dy[0], &y[0], &db[0], n/bk, bk, act == ReLU)
		return
	}
	gradGo(dz, dy, y, db, act)
}

func gradGo(dz, dy, y, db []float32, act Act) {
	bk := len(db)
	clear(db)
	for o := 0; o < len(dz); o += bk {
		g, z, s := dy[o:o+bk], dz[o:o+bk], y[o:o+bk]
		switch act {
		case Linear:
			for i := range db {
				z[i] = g[i]
				db[i] += g[i]
			}
		case ReLU:
			// Selecting on the bit pattern compiles to a conditional move;
			// selecting the float is an unpredictable branch.
			for i := range db {
				b := math.Float32bits(g[i])
				if s[i] <= 0 {
					b = 0
				}
				v := math.Float32frombits(b)
				z[i] = v
				db[i] += v
			}
		case Sigmoid:
			for i := range db {
				v := g[i] * (s[i] * (1 - s[i]))
				z[i] = v
				db[i] += v
			}
		}
	}
}
