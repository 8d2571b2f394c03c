package embedding

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/par"
)

// goldenTableHash trains one table for three fused and three
// backward + race-free steps on Zipf batches (the gradient of each step is a
// function of that step's bag sums, so forward errors compound into W) and
// hashes the bits of W.
func goldenTableHash(workers, e int) uint64 {
	rng := rand.New(rand.NewSource(int64(e)))
	tab := NewTable(1000, e, rng, 0.5)
	pool := par.NewPool(workers)
	defer pool.Close()
	const n, lr = 64, float32(0.05)
	out, dOut := make([]float32, n*e), make([]float32, n*e)
	for step := 0; step < 6; step++ {
		b := MakeVariableBatch(rng, Zipf{S: 1.05}, n, 0, 9, tab.M)
		tab.Forward(pool, b, out)
		for i, v := range out {
			dOut[i] = v*0.25 - 0.125
		}
		if step < 3 {
			tab.FusedBackwardUpdate(pool, b, dOut, lr)
			continue
		}
		dW := make([]float32, b.NumLookups()*e)
		tab.Backward(pool, b, dOut, dW)
		tab.Update(pool, RaceFree, b, dW, lr)
	}
	h := fnv.New64a()
	for _, v := range tab.W {
		binary.Write(h, binary.LittleEndian, math.Float32bits(v))
	}
	return h.Sum64()
}

// TestGoldenTables pins the updated tables to hashes recorded from the
// commit before the vector kernels existed (scalar Go row loops): on every
// kernel of this machine, on the Go bodies, and on one and three workers the
// same program must leave the same bits in W. E = 72 is a width only the Go
// bodies take.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" || cpu.Vector() == cpu.Go {
		t.Skip("the batches come from math.Pow / Exp, whose bits differ off amd64 and on amd64 without FMA")
	}
	want := map[int]uint64{16: 0xbce3699d938b81f0, 64: 0x259e7457bd7e3ea4, 72: 0xe8f7f86e607b2047, 128: 0x41be9f2cf63b461c}
	for _, k := range everyKernel {
		withKernel(t, k, func() {
			for e, w := range want {
				for _, workers := range []int{1, 3} {
					if got := goldenTableHash(workers, e); got != w {
						t.Errorf("%s kernel, E=%d, %d workers: table hash %#x, recorded %#x", KernelISA(), e, workers, got, w)
					}
				}
			}
		})
	}
}
