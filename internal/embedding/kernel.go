package embedding

import "fmt"

// The two FP32 row primitives every embedding loop is built from: bagSum and
// updateRows. Each has one Go body — the path on machines without a vector
// kernel and the oracle the vector kernels are tested against — and, on amd64,
// AVX-512F and AVX2 bodies in rows_amd64.s that give the same bits, because
// a sum is one add chain per element in lookup order from +0 and an update is
// a multiply then a subtract (two roundings, never a fused multiply-add)
// whatever computes them. The vector bodies take row lengths that are
// multiples of vecCols (every core.Config has E ∈ {16, 32, 64, 128, 256});
// other lengths run the Go body. Indices and extents are checked here, before
// a pointer reaches assembly.

// vecCols is the row-length granule of the vector kernels on both ISAs.
const vecCols = 16

// pfAhead is how many lookups ahead of the row in hand the vector kernels
// prefetch (PFBYTES in rows_amd64.s; docs/PERF.md has the pairs that kept it).
const pfAhead = 16

// rowKernel is one ISA's pair of row primitives; see rows_amd64.s. pf is the
// number of leading lookups whose pfAhead-th successor may be read. Its
// zipfX and gather methods are the same ISA's bodies of the Zipf tail's
// exp / log (zipfbag.go, zipf_amd64.s) and of GatherSlots (gather.go,
// gather_amd64.s).
type rowKernel struct {
	isa    string
	sum    func(out *float32, e int, w *float32, idx *int32, n, pf int)
	update func(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)
}

// kernels lists the vector kernels this machine can run, best first; kernel
// is the one every table and store in the process uses, nil meaning the Go
// bodies. Both are set once here; only tests assign kernel afterwards.
var (
	kernels = detectKernels()
	kernel  = firstKernel(kernels)
)

func firstKernel(ks []*rowKernel) *rowKernel {
	if len(ks) == 0 {
		return nil
	}
	return ks[0]
}

// KernelISA names the kernel the FP32 embedding lookups and updates run on:
// "avx512", "avx2", or "go". It is detected once at start-up and cannot be
// selected.
func KernelISA() string {
	if kernel == nil {
		return "go"
	}
	return kernel.isa
}

// vectorRows reports whether rows of e floats run on the vector kernel k.
func vectorRows(k *rowKernel, e int) bool { return k != nil && e != 0 && e%vecCols == 0 }

// lookAhead is the kernels' pf argument for a call on the first n of idx.
func lookAhead(idx []int32, n int) int { return max(0, min(n, len(idx)-pfAhead)) }

// bagSum sets y to Σ_{k<n} w[idx[k]·E : (idx[k]+1)·E], E = len(y), adding in
// order k = 0, 1, … from +0. idx[n:] is only ever prefetched from: callers
// pass the rest of the batch's index list so the look-ahead stays inside it.
// An index outside w's rows panics before vector code touches y or a row.
func bagSum(y, w []float32, idx []int32, n int) {
	e := len(y)
	k := kernel
	if n == 0 || !vectorRows(k, e) {
		bagSumGo(y, w, idx[:n])
		return
	}
	rows := len(w) / e
	for _, ix := range idx[:n] {
		if uint(ix) >= uint(rows) {
			panic(fmt.Sprintf("embedding: row index %d out of range [0,%d)", ix, rows))
		}
	}
	k.sum(&y[0], e, &w[0], &idx[0], n, lookAhead(idx, n))
}

func bagSumGo(y, w []float32, idx []int32) {
	e := len(y)
	clear(y)
	for _, ix := range idx {
		row := w[int(ix)*e : (int(ix)+1)*e]
		for i := range y {
			y[i] += row[i]
		}
	}
}

// updateRows applies w[r] -= lr·x_k, for k = 0, 1, …, n-1 in order, to every
// row r = idx[k] in [lo, hi); an index outside that range, in the table or
// not, is skipped. w[r] is w[r·e : (r+1)·e] and x_k is x[k·xs : k·xs+e], so
// xs = 0 applies one x to every row. Like bagSum's, idx[n:] is look-ahead.
// [lo, hi) outside w or an x too short for n rows panics before vector code
// touches a row.
func updateRows(w []float32, e int, idx []int32, n, lo, hi int, x []float32, xs int, lr float32) {
	k := kernel
	if n == 0 || lo >= hi || !vectorRows(k, e) {
		updateRowsGo(w, e, idx[:n], lo, hi, x, xs, lr)
		return
	}
	if lo < 0 || xs < 0 {
		panic("embedding: updateRows needs lo, xs >= 0")
	}
	_, _, _ = idx[n-1], w[hi*e-1], x[(n-1)*xs+e-1]
	k.update(&w[0], e, &idx[0], n, lo, hi-lo, &x[0], xs, lr, lookAhead(idx, n))
}

func updateRowsGo(w []float32, e int, idx []int32, lo, hi int, x []float32, xs int, lr float32) {
	for k, ix := range idx {
		r := int(ix)
		if r < lo || r >= hi {
			continue
		}
		row, xk := w[r*e:(r+1)*e], x[k*xs:k*xs+e]
		for i := range row {
			row[i] -= float32(lr * xk[i])
		}
	}
}

// UpdateRow applies the SGD step row[i] -= lr·x[i] over len(row) elements;
// x must be at least as long. With lr = -1 it is the exact accumulation
// row[i] += x[i]: the product only flips a sign, and IEEE subtraction is
// addition of the negated operand.
func UpdateRow(row, x []float32, lr float32) {
	updateRows(row, len(row), firstRow[:], 1, 0, 1, x, 0, lr)
}

var firstRow = [1]int32{0}
