//go:build !amd64

package cpu

func detect() ISA { return Go }
