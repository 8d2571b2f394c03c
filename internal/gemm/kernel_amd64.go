package gemm

import "repro/internal/cpu"

// The register tiles of brgemm_amd64.s; see tileFunc for the contract.

//go:noescape
func brTile4AVX512(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

//go:noescape
func brTile1AVX512(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

//go:noescape
func brTile4AVX2(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

//go:noescape
func brTile1AVX2(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

var (
	kernelAVX512 = &microKernel{isa: "avx512", cols4: 64, cols1: 64, tile4: brTile4AVX512, tile1: brTile1AVX512}
	kernelAVX2   = &microKernel{isa: "avx2", cols4: 16, cols1: 32, tile4: brTile4AVX2, tile1: brTile1AVX2}
)

// detectKernels returns the vector kernels this CPU and OS can run, best
// first.
func detectKernels() []*microKernel { return cpu.Kernels(kernelAVX512, kernelAVX2) }
