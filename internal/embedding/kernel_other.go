//go:build !amd64

package embedding

// detectKernels: no vector kernels off amd64; the Go bodies run.
func detectKernels() []*rowKernel { return nil }
