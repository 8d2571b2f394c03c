// Package cpu decides, once per process, which vector instruction set the
// hand-written kernels (internal/gemm, internal/embedding) may use. It is
// the only place that executes CPUID and XGETBV.
package cpu

// ISA is a vector instruction-set level. Levels are ordered: a machine at
// AVX512 also runs the AVX2 kernels.
type ISA int

const (
	// Go means no vector kernel: another architecture, or an amd64 CPU or
	// OS without AVX2 + FMA.
	Go ISA = iota
	// AVX2 is AVX2 + FMA with the OS saving the YMM registers.
	AVX2
	// AVX512 is AVX2 plus AVX-512F with the OS saving the opmask and ZMM
	// registers.
	AVX512
)

var vector = detect()

// Vector returns the best level this CPU and OS support. It is detected
// once at start-up and cannot be selected.
func Vector() ISA { return vector }

// Kernels returns, best first, those of a package's per-ISA kernels that
// this machine can run.
func Kernels[K any](avx512, avx2 K) []K {
	switch vector {
	case AVX512:
		return []K{avx512, avx2}
	case AVX2:
		return []K{avx2}
	}
	return nil
}
