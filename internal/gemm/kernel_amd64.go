package gemm

// The register tiles of brgemm_amd64.s; see tileFunc for the contract.

//go:noescape
func brTile4AVX512(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

//go:noescape
func brTile1AVX512(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

//go:noescape
func brTile4AVX2(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

//go:noescape
func brTile1AVX2(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

var (
	kernelAVX512 = &microKernel{isa: "avx512", cols4: 64, cols1: 64, tile4: brTile4AVX512, tile1: brTile1AVX512}
	kernelAVX2   = &microKernel{isa: "avx2", cols4: 16, cols1: 32, tile4: brTile4AVX2, tile1: brTile1AVX2}
)

// detectKernels returns the vector kernels this CPU and OS can run, best
// first. An ISA counts only when CPUID reports the instructions and XCR0
// reports that the OS saves the registers they use.
func detectKernels() []*microKernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return nil
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c1&(osxsave|avx|fma) != osxsave|avx|fma {
		return nil
	}
	xcr0, _ := xgetbv0()
	_, b7, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	const ymmState, zmmState = 0x6, 0xe6 // XMM+YMM; plus opmask, ZMM0-15 high halves, ZMM16-31
	if xcr0&ymmState != ymmState || b7&avx2 == 0 {
		return nil
	}
	if xcr0&zmmState == zmmState && b7&avx512f != 0 {
		return []*microKernel{kernelAVX512, kernelAVX2}
	}
	return []*microKernel{kernelAVX2}
}
