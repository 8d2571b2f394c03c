package gemm

import (
	"repro/internal/par"
	"repro/internal/tensor"
)

// NaiveNT computes Y = X · Wᵀ with a single-threaded triple loop over dense
// row-major matrices (Y: N×K, X: N×C, W: K×C). It is the correctness oracle
// for every fast kernel and the "reference implementation" end of the
// paper's 110× comparison.
func NaiveNT(x, w, y *tensor.Dense) {
	if x.Cols != w.Cols || y.Rows != x.Rows || y.Cols != w.Rows {
		panic("gemm: NaiveNT shape mismatch")
	}
	for n := 0; n < x.Rows; n++ {
		xRow := x.Row(n)
		yRow := y.Row(n)
		for k := 0; k < w.Rows; k++ {
			wRow := w.Row(k)
			var acc float32
			for c := range xRow {
				acc += xRow[c] * wRow[c]
			}
			yRow[k] = acc
		}
	}
}

// NaiveTN computes dW = dYᵀ · X single-threaded (dW: K×C, dY: N×K, X: N×C),
// the oracle for the backward-by-weights pass.
func NaiveTN(dy, x, dw *tensor.Dense) {
	if dy.Rows != x.Rows || dw.Rows != dy.Cols || dw.Cols != x.Cols {
		panic("gemm: NaiveTN shape mismatch")
	}
	dw.Zero()
	for n := 0; n < dy.Rows; n++ {
		dyRow := dy.Row(n)
		xRow := x.Row(n)
		for k := 0; k < dy.Cols; k++ {
			g := dyRow[k]
			if g == 0 {
				continue
			}
			dwRow := dw.Row(k)
			for c := range xRow {
				dwRow[c] += g * xRow[c]
			}
		}
	}
}

// NaiveNN computes dX = dY · W single-threaded (dX: N×C, dY: N×K, W: K×C),
// the oracle for the backward-by-data pass.
func NaiveNN(dy, w, dx *tensor.Dense) {
	if dy.Cols != w.Rows || dx.Rows != dy.Rows || dx.Cols != w.Cols {
		panic("gemm: NaiveNN shape mismatch")
	}
	dx.Zero()
	for n := 0; n < dy.Rows; n++ {
		dyRow := dy.Row(n)
		dxRow := dx.Row(n)
		for k := 0; k < dy.Cols; k++ {
			g := dyRow[k]
			if g == 0 {
				continue
			}
			wRow := w.Row(k)
			for c := range dxRow {
				dxRow[c] += g * wRow[c]
			}
		}
	}
}

// MKLStyleNT computes Y = X · Wᵀ the way the stock PyTorch path does: one
// large multithreaded GEMM over unblocked row-major tensors, parallelized
// over output rows with a modest k-tile for cache reuse but no packing.
// With small minibatches its parallelism and reuse are limited — this is the
// green-bar baseline in Fig. 5.
func MKLStyleNT(p *par.Pool, x, w, y *tensor.Dense) {
	if x.Cols != w.Cols || y.Rows != x.Rows || y.Cols != w.Rows {
		panic("gemm: MKLStyleNT shape mismatch")
	}
	const kTile = 64
	p.ForN(y.Rows, func(tid, lo, hi int) {
		for n := lo; n < hi; n++ {
			xRow := x.Row(n)
			yRow := y.Row(n)
			for k0 := 0; k0 < w.Rows; k0 += kTile {
				k1 := min(k0+kTile, w.Rows)
				for k := k0; k < k1; k++ {
					wRow := w.Row(k)
					var acc float32
					for c := range xRow {
						acc += xRow[c] * wRow[c]
					}
					yRow[k] = acc
				}
			}
		}
	})
}

// FBStyleNT computes Y = X · Wᵀ following the Facebook multisocket MLP code
// the paper benchmarks (blue bars in Fig. 5): thread-aware 2-D blocking of
// the output with serial per-tile GEMM calls over the unblocked layout. It
// reaches efficiency comparable to the batch-reduce kernel but without the
// packed tensor format.
func FBStyleNT(p *par.Pool, x, w, y *tensor.Dense) {
	if x.Cols != w.Cols || y.Rows != x.Rows || y.Cols != w.Rows {
		panic("gemm: FBStyleNT shape mismatch")
	}
	const nTile, kTile, cTile = 16, 64, 128
	nBlocks := (y.Rows + nTile - 1) / nTile
	kBlocks := (y.Cols + kTile - 1) / kTile
	p.ForN(kBlocks*nBlocks, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			kb, nb := i/nBlocks, i%nBlocks
			n0, n1 := nb*nTile, min((nb+1)*nTile, y.Rows)
			k0, k1 := kb*kTile, min((kb+1)*kTile, y.Cols)
			for n := n0; n < n1; n++ {
				yRow := y.Row(n)
				for k := k0; k < k1; k++ {
					yRow[k] = 0
				}
			}
			for c0 := 0; c0 < x.Cols; c0 += cTile {
				c1 := min(c0+cTile, x.Cols)
				for n := n0; n < n1; n++ {
					xRow := x.Row(n)
					yRow := y.Row(n)
					for k := k0; k < k1; k++ {
						wRow := w.Row(k)
						acc := yRow[k]
						for c := c0; c < c1; c++ {
							acc += xRow[c] * wRow[c]
						}
						yRow[k] = acc
					}
				}
			}
		}
	})
}
