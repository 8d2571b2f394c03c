package embedding

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/optim"
	"repro/internal/par"
)

// Strategy selects the sparse-update implementation for Algorithm 3.
type Strategy int

const (
	// Reference reproduces the pre-optimization framework path the paper's
	// Fig. 7 calls "Reference": a functionality-first kernel that scatters
	// the sparse gradients into a dense M×E buffer and then applies a dense
	// update over the whole table, single-threaded. Its cost scales with M,
	// not NS — this is why 99% of DLRM time sat in one kernel.
	Reference Strategy = iota
	// AtomicXchg parallelizes over the NS lookups and resolves the race on
	// repeated rows with a floating-point atomic add built from
	// compare-and-swap on the float bits (the paper's atomic-xchg loop).
	AtomicXchg
	// RTMStyle emulates the Intel RTM transactional section with striped
	// per-row spin locks: the row update runs as one locked (vectorizable)
	// critical section, mirroring a cache-line transaction. Like real RTM it
	// is cheap when indices are unique and degrades when hot rows collide.
	RTMStyle
	// RaceFree is Algorithm 4: rows are range-partitioned over threads and
	// every thread scans the full index list, applying only updates that
	// land in its own range. No synchronization, deterministic, and immune
	// to cache-line thrashing — at the price of redundant index scans and
	// potential imbalance when indices cluster.
	RaceFree
)

// String returns the Fig. 7 label for the strategy.
func (s Strategy) String() string {
	switch s {
	case Reference:
		return "Reference"
	case AtomicXchg:
		return "Atomic XCHG"
	case RTMStyle:
		return "RTM"
	case RaceFree:
		return "Race Free"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all update strategies in Fig. 7 order.
var Strategies = []Strategy{Reference, AtomicXchg, RTMStyle, RaceFree}

// rtmStripes is the lock-stripe count for RTMStyle. A power of two well
// above the worker count keeps false lock sharing rare, as cache-line
// granularity does for real RTM.
const rtmStripes = 1024

var rtmLocks [rtmStripes]sync.Mutex

// Update applies W[I[s]] += -lr·dW[s] for all NS lookups (Algorithm 3) using
// the selected strategy. dW holds NS rows of E as produced by Backward.
func (t *Table) Update(p *par.Pool, strat Strategy, b *Batch, dW []float32, lr float32) {
	ns := b.NumLookups()
	if len(dW) != ns*t.E {
		panic(fmt.Sprintf("embedding: update dW len %d want %d", len(dW), ns*t.E))
	}
	switch strat {
	case Reference:
		t.updateReference(b, dW, lr)
	case AtomicXchg:
		t.updateAtomic(p, b, dW, lr)
	case RTMStyle:
		t.updateRTM(p, b, dW, lr)
	case RaceFree:
		t.updateRaceFree(p, b, dW, lr)
	default:
		panic(fmt.Sprintf("embedding: unknown strategy %d", strat))
	}
}

// updateReference: dense scatter + whole-table dense update, single thread.
func (t *Table) updateReference(b *Batch, dW []float32, lr float32) {
	dense := make([]float32, t.M*t.E)
	e := t.E
	for s := 0; s < b.NumLookups(); s++ {
		ind := int(b.Indices[s])
		dst := dense[ind*e : (ind+1)*e]
		src := dW[s*e : (s+1)*e]
		for i := range dst {
			dst[i] += src[i]
		}
	}
	for i := range t.W {
		t.W[i] -= float32(lr * dense[i])
	}
}

// atomicAddFloat32 adds delta to *addr with a CAS loop on the float bits —
// the software equivalent of the paper's atomic-xchg float add.
func atomicAddFloat32(addr *float32, delta float32) {
	bits := (*uint32)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint32(bits)
		nv := math.Float32bits(math.Float32frombits(old) + delta)
		if atomic.CompareAndSwapUint32(bits, old, nv) {
			return
		}
	}
}

// atomicBody applies the lookups in [lo, hi) with CAS float adds.
func atomicBody(arg any, tid, lo, hi int) {
	t := arg.(*Table)
	b, dW, lr, e := t.ka.b, t.ka.dW, t.ka.lr, t.E
	for s := lo; s < hi; s++ {
		ind := int(b.Indices[s])
		row := t.Row(ind)
		src := dW[s*e : (s+1)*e]
		for i := range row {
			atomicAddFloat32(&row[i], float32(-lr*src[i]))
		}
	}
}

func (t *Table) updateAtomic(p *par.Pool, b *Batch, dW []float32, lr float32) {
	t.ka.b, t.ka.dW, t.ka.lr = b, dW, lr
	p.ForNArg(b.NumLookups(), atomicBody, t)
	t.ka.b, t.ka.dW = nil, nil
}

// rtmBody applies the lookups in [lo, hi) under striped row locks.
func rtmBody(arg any, tid, lo, hi int) {
	t := arg.(*Table)
	b, dW, lr, e := t.ka.b, t.ka.dW, t.ka.lr, t.E
	for s := lo; s < hi; s++ {
		ind := int(b.Indices[s])
		row, src := t.Row(ind), dW[s*e:(s+1)*e] // a bad index panics here, not under the lock
		mu := &rtmLocks[ind&(rtmStripes-1)]
		mu.Lock()
		UpdateRow(row, src, lr)
		mu.Unlock()
	}
}

func (t *Table) updateRTM(p *par.Pool, b *Batch, dW []float32, lr float32) {
	t.ka.b, t.ka.dW, t.ka.lr = b, dW, lr
	p.ForNArg(b.NumLookups(), rtmBody, t)
	t.ka.b, t.ka.dW = nil, nil
}

// raceFreeBody scans all lookups, applying only those owned by tid
// (Algorithm 4).
func raceFreeBody(arg any, tid, workers int) {
	t := arg.(*Table)
	b := t.ka.b
	lo, hi := par.Chunk(t.M, workers, tid)
	updateRows(t.W, t.E, b.Indices, len(b.Indices), lo, hi, t.ka.dW, t.E, t.ka.lr)
}

func (t *Table) updateRaceFree(p *par.Pool, b *Batch, dW []float32, lr float32) {
	t.ka.b, t.ka.dW, t.ka.lr = b, dW, lr
	p.ForEachWorkerArg(raceFreeBody, t)
	t.ka.b, t.ka.dW = nil, nil
}

// storedBody steps the lookups whose rows tid owns through the table's
// reduced-precision storage (Algorithm 4's partition, as raceFreeBody).
func storedBody(arg any, tid, workers int) {
	t := arg.(*Table)
	b, dW, lr, st, e := t.ka.b, t.ka.dW, t.ka.lr, t.ka.st, t.E
	lo, hi := par.Chunk(t.M, workers, tid)
	for s, ind := range b.Indices {
		if r := int(ind); r >= lo && r < hi {
			st.Step(t.W, r*e, dW[s*e:(s+1)*e], lr)
		}
	}
}

// UpdateStored applies the sparse update to a table whose weights st keeps
// in reduced precision (§VII; t.W is st's working view): every touched row
// goes through st.Step, under the race-free row partition, so the result is
// deterministic. The caller ends the step with st.Settle.
func (t *Table) UpdateStored(p *par.Pool, st *optim.Stored, b *Batch, dW []float32, lr float32) {
	t.ka.b, t.ka.dW, t.ka.lr, t.ka.st = b, dW, lr, st
	p.ForEachWorkerArg(storedBody, t)
	t.ka.b, t.ka.dW, t.ka.st = nil, nil, nil
}
