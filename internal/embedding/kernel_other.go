//go:build !amd64

package embedding

import "sync/atomic"

// detectKernels: no vector kernels off amd64; the Go bodies run.
func detectKernels() []*rowKernel { return nil }

// zipfX, gather and lfFill are never called: there is no vector kernel to
// call them on.
func (k *rowKernel) zipfX(x, u *float64, n int, a, inv float64, one bool) {
	panic("embedding: no vector kernel")
}

func (k *rowKernel) gather(bits *uint64, slots *atomic.Uint64, nslots int, idx *int32, n int) {
	panic("embedding: no vector kernel")
}

func (k *rowKernel) lfFill(x *uint64, w *float32, n int, scale float32) int {
	panic("embedding: no vector kernel")
}
