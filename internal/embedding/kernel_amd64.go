package embedding

import (
	"sync/atomic"

	"repro/internal/cpu"
)

// The row primitives of rows_amd64.s; see rowKernel for the contract.

//go:noescape
func bagSumAVX512(out *float32, e int, w *float32, idx *int32, n, pf int)

//go:noescape
func bagSumAVX2(out *float32, e int, w *float32, idx *int32, n, pf int)

//go:noescape
func updateRowsAVX512(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)

//go:noescape
func updateRowsAVX2(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)

// The Zipf tail's exp / log of zipf_amd64.s; see zipfXGo for the contract.

//go:noescape
func zipfXAVX512(x, u *float64, n int, a, inv float64, one bool)

//go:noescape
func zipfXAVX2(x, u *float64, n int, a, inv float64, one bool)

// The slot gather of gather_amd64.s; see GatherSlots for the contract.

//go:noescape
func gatherSlotsAVX512(bits *uint64, slots *atomic.Uint64, nslots int, idx *int32, n int)

//go:noescape
func gatherSlotsAVX2(bits *uint64, slots *atomic.Uint64, nslots int, idx *int32, n int)

// The seeded initializer's draw-and-convert pass of seeded_amd64.s; see
// lfStream.fill for the contract.

//go:noescape
func lfFillAVX512(x *uint64, w *float32, n int, scale float32) int

//go:noescape
func lfFillAVX2(x *uint64, w *float32, n int, scale float32) int

var (
	kernelAVX512 = &rowKernel{isa: "avx512", sum: bagSumAVX512, update: updateRowsAVX512}
	kernelAVX2   = &rowKernel{isa: "avx2", sum: bagSumAVX2, update: updateRowsAVX2}
)

// zipfX is zipfXGo over x[:n], u[:n] on k's ISA; n is a positive multiple of
// zipfLanes. The bodies are called directly, not through a func field, so
// that x and u may stay on the caller's stack.
func (k *rowKernel) zipfX(x, u *float64, n int, a, inv float64, one bool) {
	if k == kernelAVX512 {
		zipfXAVX512(x, u, n, a, inv, one)
	} else {
		zipfXAVX2(x, u, n, a, inv, one)
	}
}

// gather is GatherSlots over bits[:n], idx[:n] on k's ISA; n is a positive
// multiple of gatherLanes and 0 < nslots < 2³¹. Called directly, as zipfX
// is, so that bits may stay on the caller's stack.
func (k *rowKernel) gather(bits *uint64, slots *atomic.Uint64, nslots int, idx *int32, n int) {
	if k == kernelAVX512 {
		gatherSlotsAVX512(bits, slots, nslots, idx, n)
	} else {
		gatherSlotsAVX2(bits, slots, nslots, idx, n)
	}
}

// lfFill draws the n outputs that follow x[-lfLag:] into x[:n] and
// converts them into w[:n], stopping before the first vector of lfLanes
// that holds a 1; n is a positive multiple of lfLanes. It returns the
// outputs converted: n, or where that vector starts. Called directly, as
// zipfX is, so that the stream may stay on the caller's stack.
func (k *rowKernel) lfFill(x *uint64, w *float32, n int, scale float32) int {
	if k == kernelAVX512 {
		return lfFillAVX512(x, w, n, scale)
	}
	return lfFillAVX2(x, w, n, scale)
}

// detectKernels returns the vector kernels this CPU and OS can run, best
// first.
func detectKernels() []*rowKernel { return cpu.Kernels(kernelAVX512, kernelAVX2) }
