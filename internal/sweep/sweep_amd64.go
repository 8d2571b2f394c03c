package sweep

import "repro/internal/cpu"

// The sweep bodies of sweep_amd64.s; see kernelSet for the contract.

//go:noescape
func transposeAVX512(dst, src *float32, bc, bk int)

//go:noescape
func sgdAVX512(p, grad *float32, n int, lr float32)

//go:noescape
func biasAVX512(blk, bias *float32, rows, bk int, relu bool)

//go:noescape
func gradAVX512(dz, dy, y, db *float32, rows, bk int, relu bool)

//go:noescape
func transposeAVX2(dst, src *float32, bc, bk int)

//go:noescape
func sgdAVX2(p, grad *float32, n int, lr float32)

//go:noescape
func biasAVX2(blk, bias *float32, rows, bk int, relu bool)

//go:noescape
func gradAVX2(dz, dy, y, db *float32, rows, bk int, relu bool)

var (
	kernelAVX512 = &kernelSet{isa: "avx512", tile: 16, transpose: transposeAVX512, sgd: sgdAVX512, bias: biasAVX512, grad: gradAVX512}
	kernelAVX2   = &kernelSet{isa: "avx2", tile: 8, transpose: transposeAVX2, sgd: sgdAVX2, bias: biasAVX2, grad: gradAVX2}
)

// detectKernels returns the vector kernels this CPU and OS can run, best
// first.
func detectKernels() []*kernelSet { return cpu.Kernels(kernelAVX512, kernelAVX2) }
