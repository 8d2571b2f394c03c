package embedding

import "repro/internal/cpu"

// The row primitives of rows_amd64.s; see rowKernel for the contract.

//go:noescape
func bagSumAVX512(out *float32, e int, w *float32, idx *int32, n, pf int)

//go:noescape
func bagSumAVX2(out *float32, e int, w *float32, idx *int32, n, pf int)

//go:noescape
func updateRowsAVX512(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)

//go:noescape
func updateRowsAVX2(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)

var (
	kernelAVX512 = &rowKernel{isa: "avx512", sum: bagSumAVX512, update: updateRowsAVX512}
	kernelAVX2   = &rowKernel{isa: "avx2", sum: bagSumAVX2, update: updateRowsAVX2}
)

// detectKernels returns the vector kernels this CPU and OS can run, best
// first.
func detectKernels() []*rowKernel { return cpu.Kernels(kernelAVX512, kernelAVX2) }
