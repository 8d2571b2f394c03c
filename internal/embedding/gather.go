package embedding

import (
	"math"
	"sync/atomic"
)

// A gather of write-once slots. The batch generator caches each table's
// head scores in atomic.Uint64 slots, 0 meaning not yet computed, and reads
// a bag's worth at a time through GatherSlots: VPGATHERDQ under the mask
// row < len(slots) on the vector kernel, gatherSlotsGo — the portable path,
// the oracle, and the body for the lanes past the last whole vector —
// otherwise. Both read the same slots and so return the same bits.

// gatherLanes is the lane count of the vector gather: it takes whole groups
// of it, the Go body the rest.
const gatherLanes = 8

// GatherSlots sets bits[i] to slots[idx[i]]'s value when idx[i] indexes
// slots (uint(idx[i]) < len(slots)) and to 0 otherwise, for i < len(idx);
// bits must be at least as long as idx. A 0 is also what a slot not yet
// written holds, so a caller takes its own path for every 0 it gets back:
// the vector loads are plain, not atomic (gather_amd64.s says why that is
// safe), and only that path sees a concurrent write in the memory model.
func GatherSlots(bits []uint64, slots []atomic.Uint64, idx []int32) {
	bits = bits[:len(idx)]
	n := 0
	if k := kernel; k != nil && len(slots) > 0 && len(slots) <= math.MaxInt32 {
		if n = len(idx) &^ (gatherLanes - 1); n > 0 {
			k.gather(&bits[0], &slots[0], len(slots), &idx[0], n)
		}
	}
	gatherSlotsGo(bits[n:], slots, idx[n:])
}

func gatherSlotsGo(bits []uint64, slots []atomic.Uint64, idx []int32) {
	for i, r := range idx {
		bits[i] = 0
		if uint(r) < uint(len(slots)) {
			bits[i] = slots[r].Load()
		}
	}
}
