//go:build !amd64

package gemm

// detectKernels: no vector kernels off amd64; the Go kernel runs.
func detectKernels() []*microKernel { return nil }
