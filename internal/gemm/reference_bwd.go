package gemm

import (
	"repro/internal/par"
	"repro/internal/tensor"
)

// Backward-pass baselines for the Fig. 5 comparison: the same two
// implementation styles as the forward baselines, applied to the
// backward-by-data (dX = dY·W) and backward-by-weights (dW = dYᵀ·X) passes.

// MKLStyleNN computes dX = dY · W (dX: N×C, dY: N×K, W: K×C) as one large
// row-parallel GEMM without packing.
func MKLStyleNN(p *par.Pool, dy, w, dx *tensor.Dense) {
	if dy.Cols != w.Rows || dx.Rows != dy.Rows || dx.Cols != w.Cols {
		panic("gemm: MKLStyleNN shape mismatch")
	}
	p.ForN(dy.Rows, func(tid, lo, hi int) {
		for n := lo; n < hi; n++ {
			dxRow := dx.Row(n)
			for c := range dxRow {
				dxRow[c] = 0
			}
			dyRow := dy.Row(n)
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
	})
}

// MKLStyleTN computes dW = dYᵀ · X (dW: K×C, dY: N×K, X: N×C) parallelized
// over output rows (K), the natural large-GEMM decomposition.
func MKLStyleTN(p *par.Pool, dy, x, dw *tensor.Dense) {
	if dy.Rows != x.Rows || dw.Rows != dy.Cols || dw.Cols != x.Cols {
		panic("gemm: MKLStyleTN shape mismatch")
	}
	p.ForN(dw.Rows, func(tid, lo, hi int) {
		for k := lo; k < hi; k++ {
			dwRow := dw.Row(k)
			for c := range dwRow {
				dwRow[c] = 0
			}
			for n := 0; n < dy.Rows; n++ {
				g := dy.At(n, k)
				if g == 0 {
					continue
				}
				xRow := x.Row(n)
				for c := range dwRow {
					dwRow[c] += g * xRow[c]
				}
			}
		}
	})
}

// FBStyleNN computes dX = dY · W with the 2-D tiled decomposition.
func FBStyleNN(p *par.Pool, dy, w, dx *tensor.Dense) {
	if dy.Cols != w.Rows || dx.Rows != dy.Rows || dx.Cols != w.Cols {
		panic("gemm: FBStyleNN shape mismatch")
	}
	const nTile, cTile, kTile = 16, 64, 128
	nBlocks := (dx.Rows + nTile - 1) / nTile
	cBlocks := (dx.Cols + cTile - 1) / cTile
	p.ForN(cBlocks*nBlocks, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			cb, nb := i/nBlocks, i%nBlocks
			n0, n1 := nb*nTile, min((nb+1)*nTile, dx.Rows)
			c0, c1 := cb*cTile, min((cb+1)*cTile, dx.Cols)
			for n := n0; n < n1; n++ {
				row := dx.Row(n)
				for c := c0; c < c1; c++ {
					row[c] = 0
				}
			}
			for k0 := 0; k0 < dy.Cols; k0 += kTile {
				k1 := min(k0+kTile, dy.Cols)
				for n := n0; n < n1; n++ {
					dyRow := dy.Row(n)
					dxRow := dx.Row(n)
					for k := k0; k < k1; k++ {
						g := dyRow[k]
						if g == 0 {
							continue
						}
						wRow := w.Row(k)
						for c := c0; c < c1; c++ {
							dxRow[c] += g * wRow[c]
						}
					}
				}
			}
		}
	})
}

// FBStyleTN computes dW = dYᵀ · X with the 2-D tiled decomposition.
func FBStyleTN(p *par.Pool, dy, x, dw *tensor.Dense) {
	if dy.Rows != x.Rows || dw.Rows != dy.Cols || dw.Cols != x.Cols {
		panic("gemm: FBStyleTN shape mismatch")
	}
	const kTile, cTile = 32, 128
	kBlocks := (dw.Rows + kTile - 1) / kTile
	cBlocks := (dw.Cols + cTile - 1) / cTile
	p.ForN(kBlocks*cBlocks, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			kb, cb := i/cBlocks, i%cBlocks
			k0, k1 := kb*kTile, min((kb+1)*kTile, dw.Rows)
			c0, c1 := cb*cTile, min((cb+1)*cTile, dw.Cols)
			for k := k0; k < k1; k++ {
				row := dw.Row(k)
				for c := c0; c < c1; c++ {
					row[c] = 0
				}
			}
			for n := 0; n < dy.Rows; n++ {
				dyRow := dy.Row(n)
				xRow := x.Row(n)
				for k := k0; k < k1; k++ {
					g := dyRow[k]
					if g == 0 {
						continue
					}
					dwRow := dw.Row(k)
					for c := c0; c < c1; c++ {
						dwRow[c] += g * xRow[c]
					}
				}
			}
		}
	})
}
