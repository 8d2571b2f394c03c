package cpu

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detect counts an ISA only when CPUID reports the instructions and XCR0
// reports that the OS saves the registers they use.
func detect() ISA {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return Go
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c1&(osxsave|avx|fma) != osxsave|avx|fma {
		return Go
	}
	xcr0, _ := xgetbv0()
	_, b7, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	const ymmState, zmmState = 0x6, 0xe6 // XMM+YMM; plus opmask, ZMM0-15 high halves, ZMM16-31
	if xcr0&ymmState != ymmState || b7&avx2 == 0 {
		return Go
	}
	if xcr0&zmmState == zmmState && b7&avx512f != 0 {
		return AVX512
	}
	return AVX2
}
