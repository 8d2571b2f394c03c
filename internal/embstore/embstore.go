// Package embstore provides a tiered embedding parameter store: each rank's
// (or serving replica's) table shard keeps its Zipf-hot rows in a
// fixed-byte-budget cache in front of the authoritative in-RAM tables,
// modeling the HugeCTR/HEAT design where larger-than-memory tables put cold
// rows behind a slower tier. The cache is an open-addressed row index over a
// preallocated row arena with a CLOCK eviction hand and a doorkeeper
// admission filter (a row must miss twice while holding its doorkeeper
// position to earn a slot, so one-shot cold scans never displace the hot
// head), and
// optimizer updates write back through it with dirty-row tracking: a dirty
// row is flushed to its table before its slot is reused, and Flush drains
// the rest, so the tables always converge to exactly the untiered values.
//
// Everything is preallocated at construction; steady-state Forward/Update
// traffic performs zero heap allocations (enforced by alloc_test.go per the
// repo's differencing-test convention). The store itself moves no modeled
// time — the cold tier's bandwidth/latency cost is charged by the callers
// (internal/core on the rank's virtual clock, internal/serve in the replica
// cost model) using the analytic hit rate from HitRate / Zipf.HeadMass.
package embstore

import (
	"fmt"

	"repro/internal/embedding"
)

// RowOverheadBytes is the per-cached-row metadata charge counted against
// the byte budget: the index entry (key + slot), the reverse key, the CLOCK
// reference bit, the dirty bit, and the amortized doorkeeper entries.
const RowOverheadBytes = 64

// RowsForBudget returns how many rows of embedding dim e a cache of budget
// bytes can hold, metadata included. Zero or negative budgets hold nothing.
func RowsForBudget(budget, e int) int {
	if budget <= 0 || e <= 0 {
		return 0
	}
	return budget / (4*e + RowOverheadBytes)
}

// HitRate returns the modeled steady-state cache hit rate when budget bytes
// front a shard of tables with the given row counts (all at embedding dim
// e) under Zipf(skew) traffic: the budget splits evenly across the shard's
// tables, each table's share captures its analytic head mass
// (Zipf.HeadMass), and tables are averaged uniformly because the workload
// draws the same lookup count from each. This is the number the timing-mode
// cold-tier charge and the serving cost model both consume; the functional
// store's measured Stats converge to it (tested).
func HitRate(budget, e int, rows []int, skew float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	perTable := RowsForBudget(budget, e) / len(rows)
	z := embedding.Zipf{S: skew}
	var sum float64
	for _, m := range rows {
		sum += z.HeadMass(perTable, m)
	}
	return sum / float64(len(rows))
}

// Stats counts cache traffic since construction or the last ResetStats.
type Stats struct {
	Hits       int64 // accesses served from a cached row
	Misses     int64 // accesses that went to the authoritative table
	Admits     int64 // rows copied into the cache
	Evictions  int64 // slots reclaimed by the CLOCK hand
	Writebacks int64 // dirty rows flushed to their table (evict or Flush)
}

// HitRate returns the measured hit fraction, 0 if there was no traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Store is the tiered front for one shard's tables. It is not safe for
// concurrent use; in the distributed trainer each rank owns one.
type Store struct {
	tables []*embedding.Table
	e      int
	budget int

	capRows int // cache capacity in rows
	used    int // slots handed out so far (== capRows once warm)

	rows    []float32 // capRows × e cached row copies
	slotKey []uint64  // slot → packed (table, row) key; 0 = free
	ref     []uint8   // CLOCK reference bits
	dirty   []bool    // cached copy diverges from the table
	hand    int       // CLOCK hand

	keys  []uint64 // open-addressed index: packed key, 0 = empty
	slots []int32  // index position → arena slot
	mask  uint64   // len(keys) - 1

	// Doorkeeper: a direct-mapped (key, count) table over recent misses.
	// A row is admitted only on its second miss while it still owns its
	// doorkeeper position; a colliding newer key takes the position over,
	// so counts age out by replacement and a one-shot scan — every key
	// seen exactly once — can never earn a slot.
	admKey  []uint64
	admCnt  []uint8
	admMask uint64

	Stats Stats
}

// New builds a store over the shard's tables with the given byte budget.
// All tables must share one embedding dim (the configs guarantee it). A
// zero budget yields a pure pass-through store: every access goes straight
// to its table and nothing is ever cached.
func New(budget int, tables []*embedding.Table) (*Store, error) {
	s := &Store{tables: tables, budget: budget}
	for _, t := range tables {
		if s.e == 0 {
			s.e = t.E
		} else if t.E != s.e {
			return nil, fmt.Errorf("embstore: mixed embedding dims %d and %d in one shard", s.e, t.E)
		}
	}
	s.capRows = RowsForBudget(budget, s.e)
	if s.capRows == 0 {
		return s, nil
	}
	idxSize := 8
	for idxSize < 2*s.capRows {
		idxSize *= 2
	}
	s.rows = make([]float32, s.capRows*s.e)
	s.slotKey = make([]uint64, s.capRows)
	s.ref = make([]uint8, s.capRows)
	s.dirty = make([]bool, s.capRows)
	s.keys = make([]uint64, idxSize)
	s.slots = make([]int32, idxSize)
	s.mask = uint64(idxSize - 1)
	s.admKey = make([]uint64, idxSize)
	s.admCnt = make([]uint8, idxSize)
	s.admMask = uint64(idxSize - 1)
	return s, nil
}

// CapRows returns the cache capacity in rows.
func (s *Store) CapRows() int { return s.capRows }

// Len returns how many rows are currently cached.
func (s *Store) Len() int { return s.used }

// Bytes returns the bytes the cache accounts for (rows plus metadata);
// never exceeds the construction budget.
func (s *Store) Bytes() int { return s.capRows * (4*s.e + RowOverheadBytes) }

// ResetStats zeroes the traffic counters (cached rows stay).
func (s *Store) ResetStats() { s.Stats = Stats{} }

// mix is the 64-bit finalizer (murmur3 fmix64) used for both the row index
// and the doorkeeper positions.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// packKey packs (local table, row) into a nonzero index key.
func packKey(li int, r int32) uint64 {
	return uint64(li+1)<<32 | uint64(uint32(r))
}

// lookup returns the arena slot for key, or -1.
func (s *Store) lookup(key uint64) int32 {
	i := mix(key) & s.mask
	for {
		switch s.keys[i] {
		case key:
			return s.slots[i]
		case 0:
			return -1
		}
		i = (i + 1) & s.mask
	}
}

// insert adds key → slot; the index is sized for ≤50% load so a free
// position always exists within the probe chain.
func (s *Store) insert(key uint64, slot int32) {
	i := mix(key) & s.mask
	for s.keys[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.keys[i] = key
	s.slots[i] = slot
}

// del removes key with backward-shift deletion, keeping probe chains
// intact without tombstones.
func (s *Store) del(key uint64) {
	i := mix(key) & s.mask
	for s.keys[i] != key {
		i = (i + 1) & s.mask
	}
	j := i
	for {
		j = (j + 1) & s.mask
		k := s.keys[j]
		if k == 0 {
			break
		}
		// k may fill the hole at i iff its home position precedes i in
		// the cyclic probe order ending at j.
		if (j-(mix(k)&s.mask))&s.mask >= (j-i)&s.mask {
			s.keys[i] = k
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.keys[i] = 0
	s.slots[i] = 0
}

// victim advances the CLOCK hand to the next slot with a clear reference
// bit, giving recently touched rows a second chance.
func (s *Store) victim() int32 {
	for {
		if s.ref[s.hand] == 0 {
			v := s.hand
			s.hand++
			if s.hand == s.capRows {
				s.hand = 0
			}
			return int32(v)
		}
		s.ref[s.hand] = 0
		s.hand++
		if s.hand == s.capRows {
			s.hand = 0
		}
	}
}

// writeBack flushes slot's cached copy to its authoritative table row.
func (s *Store) writeBack(slot int32) {
	key := s.slotKey[slot]
	li := int(key>>32) - 1
	r := int(uint32(key))
	copy(s.tables[li].Row(r), s.rows[int(slot)*s.e:(int(slot)+1)*s.e])
	s.dirty[slot] = false
	s.Stats.Writebacks++
}

// access returns the current storage for (table li, row r): the cached copy
// when present (authoritative until written back), the table row otherwise.
// Misses pass through the doorkeeper; a repeat miss admits the row,
// evicting the CLOCK victim — after writing it back if dirty — once the
// cache is full. write marks the returned row dirty if it is
// cache-resident.
func (s *Store) access(li int, r int32, write bool) []float32 {
	tab := s.tables[li]
	if s.capRows == 0 {
		s.Stats.Misses++
		return tab.Row(int(r))
	}
	key := packKey(li, r)
	if slot := s.lookup(key); slot >= 0 {
		s.Stats.Hits++
		s.ref[slot] = 1
		if write {
			s.dirty[slot] = true
		}
		return s.rows[int(slot)*s.e : (int(slot)+1)*s.e]
	}
	s.Stats.Misses++
	h := mix(key) & s.admMask
	if s.admKey[h] != key {
		s.admKey[h] = key // take the position over; the old key ages out
		s.admCnt[h] = 1
		return tab.Row(int(r)) // one-shot so far: not worth a slot
	}
	if s.admCnt[h] < 255 {
		s.admCnt[h]++
	}
	var slot int32
	if s.used < s.capRows {
		slot = int32(s.used)
		s.used++
	} else {
		slot = s.victim()
		if s.dirty[slot] {
			s.writeBack(slot)
		}
		s.del(s.slotKey[slot])
		s.Stats.Evictions++
	}
	copy(s.rows[int(slot)*s.e:(int(slot)+1)*s.e], tab.Row(int(r)))
	s.insert(key, slot)
	s.slotKey[slot] = key
	s.ref[slot] = 1
	s.dirty[slot] = write
	s.Stats.Admits++
	return s.rows[int(slot)*s.e : (int(slot)+1)*s.e]
}

// Forward computes the batch's bag sums for local table li into out
// (NumBags × e), reading rows through the cache. A bag is zeroed and its rows
// accumulated in lookup order with embedding's own row primitive (an
// admission may reuse the slot of a row this bag has already added, so rows
// are added as they are resolved), and a cached copy is bit-for-bit the table
// row it shadows, so the result is bit-identical to Table.Forward.
func (s *Store) Forward(li int, b *embedding.Batch, out []float32) {
	e := s.e
	for bag := 0; bag < b.NumBags(); bag++ {
		y := out[bag*e : (bag+1)*e]
		clear(y)
		for _, r := range b.Indices[b.Offsets[bag]:b.Offsets[bag+1]] {
			embedding.UpdateRow(y, s.access(li, r, false), -1) // y += row, exactly
		}
	}
}

// Update applies the SGD step row[i] -= lr·dW[s·e+i] for every lookup s in
// ascending order, writing through the cache with dirty marking. The
// race-free update strategy applies per-row deltas in exactly this lookup
// order (each worker scans all lookups and claims its row range) with the
// same row primitive, so the cached path is bit-identical to Table.Update
// with embedding.RaceFree.
func (s *Store) Update(li int, b *embedding.Batch, dW []float32, lr float32) {
	e := s.e
	for j := 0; j < b.NumLookups(); j++ {
		embedding.UpdateRow(s.access(li, b.Indices[j], true), dW[j*e:(j+1)*e], lr)
	}
}

// Flush writes every dirty cached row back to its table. Call before
// inspecting or checkpointing the tables; afterwards the tables hold
// exactly the values the untiered path would.
func (s *Store) Flush() {
	for slot := 0; slot < s.used; slot++ {
		if s.dirty[slot] {
			s.writeBack(int32(slot))
		}
	}
}
