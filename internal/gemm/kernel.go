package gemm

// tileFunc computes one register tile — 4 or 1 output rows by w ≤ panel
// columns — of a batch-reduce GEMM over the whole reduction:
//
//	out[i][k] (+)= Σ_t Σ_r  B_t[bOff + i·sbm + r·sbr] · A_t[aOff + r·lda + k]
//
// a and b point at the first of nt tile slices; offsets and strides are in
// bytes and lda is also the output row stride. The tile is seeded with zero
// (zero = true) or with out's current contents, kept in registers across
// every (t, r), and stored once. The caller has checked all bounds.
type tileFunc func(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

// microKernel is one ISA's pair of register tiles.
type microKernel struct {
	isa          string
	cols4, cols1 int // panel width of the 4-row and of the 1-row tile
	tile4, tile1 tileFunc
}

// kernels lists the vector kernels this machine can run, best first; kernel
// is the one every GEMM in the process uses, nil meaning the Go kernel.
// Both are set once here; only tests assign kernel afterwards.
var (
	kernels = detectKernels()
	kernel  = firstKernel(kernels)
)

func firstKernel(ks []*microKernel) *microKernel {
	if len(ks) == 0 {
		return nil
	}
	return ks[0]
}

// KernelISA names the micro-kernel the GEMMs run on: "avx512", "avx2", or
// "go" for the portable kernel (other architectures, CPUs before AVX2+FMA).
// It is detected once at start-up and cannot be selected.
func KernelISA() string {
	if kernel == nil {
		return "go"
	}
	return kernel.isa
}

// batchReduce is the one kernel behind all three passes:
//
//	out[i][k] (+)= Σ_t Σ_r  B_t[i·sbm + r·sbr] · A_t[r·bk + k]    i < m, k < bk
//
// Forward and backward-by-data reduce over a tile's features (sbm = bc,
// sbr = 1); backward-by-weights reduces over its samples (sbm = 1, sbr =
// bc). With zeroOut the sum replaces out, otherwise it continues from it.
//
// Reduction-order contract: every output element is a single chain of fused
// multiply-adds over (t, r) in order, whatever register tile, row remainder,
// column panel or ISA computes it. Results therefore do not depend on how
// rows are grouped into calls (bn), on m, or on AVX2 vs AVX-512 — the
// property the serving and distributed parity suites rest on. The Go kernel
// groups the reduction four at a time and rounds after every multiply, so it
// agrees with the vector kernels to rounding only.
//
// Every tile's and out's length is checked against (m, r, bk, sbm, sbr)
// before any vector code runs; a short slice panics as an index out of range.
func batchReduce(aTiles, bTiles [][]float32, out []float32, m, r, bk, sbm, sbr int, zeroOut bool) {
	if m <= 0 || r <= 0 || bk <= 0 || sbm < 0 || sbr < 0 {
		panic("gemm: batchReduce needs m, r, bk > 0 and strides >= 0")
	}
	_ = out[m*bk-1]
	out = out[:m*bk]
	bLast := (m-1)*sbm + (r-1)*sbr
	for t, a := range aTiles {
		_, _ = a[r*bk-1], bTiles[t][bLast]
	}
	k := kernel
	if k == nil || len(aTiles) == 0 {
		batchReduceGo(aTiles, bTiles, out, m, r, bk, sbm, sbr, zeroOut)
		return
	}
	a0, b0, nt := &aTiles[0], &bTiles[0], len(aTiles)
	lda, sm, sr := uintptr(bk)*4, uintptr(sbm)*4, uintptr(sbr)*4
	i := 0
	for ; i+4 <= m; i += 4 {
		for c := 0; c < bk; c += k.cols4 {
			k.tile4(a0, b0, nt, uintptr(c)*4, uintptr(i)*sm, r, lda, sm, sr, &out[i*bk+c], min(bk-c, k.cols4), zeroOut)
		}
	}
	for ; i < m; i++ {
		for c := 0; c < bk; c += k.cols1 {
			k.tile1(a0, b0, nt, uintptr(c)*4, uintptr(i)*sm, r, lda, sm, sr, &out[i*bk+c], min(bk-c, k.cols1), zeroOut)
		}
	}
}

// batchReduceGo is batchReduce in portable Go: the kernel on machines
// without a vector one, and the oracle the vector kernels are tested
// against. The inner loop broadcasts four input scalars against a contiguous
// run of bk outputs, four multiply-adds per output store.
func batchReduceGo(aTiles, bTiles [][]float32, out []float32, m, r, bk, sbm, sbr int, zeroOut bool) {
	if zeroOut {
		clear(out)
	}
	for t, a := range aTiles {
		b := bTiles[t]
		for i := 0; i < m; i++ {
			x := b[i*sbm:]
			y := out[i*bk : i*bk+bk]
			ri := 0
			for ; ri+4 <= r; ri += 4 {
				x0, x1, x2, x3 := x[ri*sbr], x[(ri+1)*sbr], x[(ri+2)*sbr], x[(ri+3)*sbr]
				a0 := a[ri*bk : ri*bk+bk]
				a1 := a[(ri+1)*bk : (ri+1)*bk+bk]
				a2 := a[(ri+2)*bk : (ri+2)*bk+bk]
				a3 := a[(ri+3)*bk : (ri+3)*bk+bk]
				for k := range y {
					y[k] += x0*a0[k] + x1*a1[k] + x2*a2[k] + x3*a3[k]
				}
			}
			for ; ri < r; ri++ {
				xv := x[ri*sbr]
				ar := a[ri*bk : ri*bk+bk]
				for k := range y {
					y[k] += xv * ar[k]
				}
			}
		}
	}
}
