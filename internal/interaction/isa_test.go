package interaction

import "unsafe"

// gemm keeps its micro-kernel unexported and unselectable: it is set once at
// start-up and only tests assign it. These tests are such tests — the
// interaction's bit-identity across AVX2 and AVX-512 is a property of the
// tiles it calls — so they reach the two variables by linkname instead of
// gemm growing an exported selector. Both are pointers (a slice of them)
// whatever the kernel type is.

//go:linkname gemmKernel repro/internal/gemm.kernel
var gemmKernel unsafe.Pointer

//go:linkname gemmKernels repro/internal/gemm.kernels
var gemmKernels []unsafe.Pointer

// eachVectorKernel runs f once per vector kernel this machine has, best
// first, with gemm switched to it. i indexes the kernel.
func eachVectorKernel(f func(i int)) {
	old := gemmKernel
	defer func() { gemmKernel = old }()
	for i, k := range gemmKernels {
		gemmKernel = k
		f(i)
	}
}
