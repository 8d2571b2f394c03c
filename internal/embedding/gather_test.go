package embedding

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// gatherCase returns nslots slots, every warm-th of them written (0: all
// cold) with a nonzero pattern — sign bit, NaN and denormal bits among
// them — and n indices picked by the stream seeded with seed: inside the
// slots, either side of their end, far past it, negative and the int32
// extremes.
func gatherCase(nslots, n, warm int, seed uint64) ([]atomic.Uint64, []int32) {
	g := rng.Stream(seed)
	slots := make([]atomic.Uint64, nslots)
	for i := range slots {
		if warm > 0 && i%warm == 0 {
			slots[i].Store(g.Next() | 1)
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		r := g.Next()
		ns := int32(nslots)
		switch r & 7 {
		case 0:
			idx[i] = ns - 2 + int32(r>>8)%4
		case 1:
			idx[i] = ns + int32(r>>8)%100
		case 2:
			idx[i] = -1 - int32(r>>8)%3
		case 3:
			idx[i] = [2]int32{math.MinInt32, math.MaxInt32}[(r>>8)&1]
		default:
			idx[i] = int32((r >> 8) % uint64(nslots))
		}
	}
	return slots, idx
}

// checkGather holds GatherSlots under every kernel to the plain reading of
// its contract, bit for bit, and checks that it writes nothing in bits past
// len(idx).
func checkGather(t *testing.T, slots []atomic.Uint64, idx []int32) {
	t.Helper()
	want := make([]uint64, len(idx))
	for i, r := range idx {
		if r >= 0 && int(r) < len(slots) {
			want[i] = slots[r].Load()
		}
	}
	for _, k := range everyKernel {
		withKernel(t, k, func() {
			const sentinel = 0xdeadbeef
			bits := make([]uint64, len(idx)+3)
			for i := range bits {
				bits[i] = sentinel
			}
			GatherSlots(bits, slots, idx)
			for i, w := range want {
				if bits[i] != w {
					t.Fatalf("%s: %d slots, index %d read %#x, want %#x", KernelISA(), len(slots), idx[i], bits[i], w)
				}
			}
			for _, b := range bits[len(idx):] {
				if b != sentinel {
					t.Fatalf("%s: wrote past len(idx)", KernelISA())
				}
			}
		})
	}
}

// TestGatherSlots runs checkGather over gathers shorter than one vector up
// to several vectors with a partial one, on slot arrays from one slot to a
// table's head-score cache, cold, partly written and written.
func TestGatherSlots(t *testing.T) {
	for i, n := range []int{0, 1, 7, 8, 13, 50, 64, 65, 130} {
		for _, nslots := range []int{1, 3, 1000, 1 << 16} {
			for _, warm := range []int{0, 3, 1} {
				t.Run(fmt.Sprintf("n=%d,slots=%d,warm=%d", n, nslots, warm), func(t *testing.T) {
					slots, idx := gatherCase(nslots, n, warm, uint64(i))
					checkGather(t, slots, idx)
				})
			}
		}
	}
	// No slots at all: every index is past them.
	checkGather(t, nil, []int32{0, 1, 2, 3, 4, 5, 6, 7, -1})
}

// FuzzGatherSlots is TestGatherSlots at random: 0..130 indices into 1..2¹⁷
// slots, every warm-th (0..4) slot written.
func FuzzGatherSlots(f *testing.F) {
	f.Add(uint8(50), uint32(1<<16), uint64(1), uint8(0))
	f.Add(uint8(13), uint32(3), uint64(2), uint8(2))
	f.Add(uint8(130), uint32(1000), uint64(3), uint8(1))
	f.Fuzz(func(t *testing.T, n uint8, nslots uint32, seed uint64, warm uint8) {
		slots, idx := gatherCase(1+int(nslots%(1<<17)), int(n%131), int(warm%5), seed)
		checkGather(t, slots, idx)
	})
}
