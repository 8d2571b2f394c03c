//go:build !amd64

package sweep

// detectKernels: no vector kernels off amd64; the Go bodies run.
func detectKernels() []*kernelSet { return nil }
