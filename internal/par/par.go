// Package par provides the thread-level parallel substrate used by every
// compute kernel in this repository. It is the Go substitute for the OpenMP
// `#pragma omp parallel for` constructs in the paper: a fixed-size worker
// pool with static range partitioning, so that the same data decompositions
// (and the same race conditions, and the same fixes) arise as in the C++
// kernels the paper describes.
//
// Workers are persistent: NewPool launches its goroutines once and every
// parallel region is handed to them over per-worker channels, mirroring how
// an OpenMP runtime parks its thread team between parallel regions instead
// of re-spawning it. This keeps the per-region cost to one channel send and
// receive per worker — no goroutine creation, no allocation — which matters
// because DLRM's hot loop issues dozens of small parallel regions per
// iteration (see docs/PERF.md for the handoff protocol).
//
// Work items are closures receiving (tid, lo, hi) half-open ranges, and
// partitioning is the exact integer split the paper's Algorithm 4 uses:
//
//	lo = (n * tid) / nThreads
//	hi = (n * (tid+1)) / nThreads
//
// Allocation-free dispatch: the plain ForN entry point takes
// closures, and a closure that captures variables costs one heap
// allocation at the call site. Steady-state kernels that must not allocate
// use the *Arg variants instead: the body is a package-level function (a
// static func value, never allocated) and the per-call state travels through
// a persistent args struct passed as `arg any` (a pointer conversion, never
// allocated). See gemm, mlp, embedding, and interaction for the pattern.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Chunk returns the half-open range [lo, hi) assigned to partition tid out
// of parts when statically splitting n items. It matches the split used by
// the paper's race-free embedding update (Algorithm 4): every index in
// [0, n) belongs to exactly one partition and partitions are contiguous and
// balanced to within one element.
func Chunk(n, parts, tid int) (lo, hi int) {
	if parts <= 0 {
		return 0, n
	}
	lo = n * tid / parts
	hi = n * (tid + 1) / parts
	return lo, hi
}

// region dispatch modes.
const (
	modeIdle   = iota
	modeForN   // nbody over Chunk(n, active, tid)
	modeWorker // wbody once per worker
)

// state is the part of a pool shared with its worker goroutines. It is
// split from Pool so that an abandoned Pool can be garbage collected: the
// workers reference only the state, and a runtime cleanup on the Pool shuts
// them down once the Pool itself becomes unreachable.
type state struct {
	workers int         // immutable after NewPool
	closed  atomic.Bool // set by close; closed pools run regions serially

	// mu serializes parallel regions: concurrent submitters (e.g. simulated
	// ranks sharing one pool) queue up rather than corrupting the region
	// descriptor below.
	mu     sync.Mutex
	wg     sync.WaitGroup
	wake   []chan struct{} // one per helper worker (tid 1..workers-1)
	exited sync.WaitGroup  // one per helper goroutine, done as it ends

	// Region descriptor, valid from wake to wg.Wait. The channel send
	// publishes these fields to the workers (happens-before), and wg.Done /
	// wg.Wait publishes completion back.
	mode   int
	n      int // item count (ForN)
	active int // number of participating partitions
	nbody  func(arg any, tid, lo, hi int)
	wbody  func(arg any, tid, workers int)
	arg    any

	closeOnce sync.Once

	attach sync.Map // *StateKey -> any, per-pool kernel state
}

// Pool is a fixed set of persistent workers over which parallel-for loops
// execute. Regions are serialized: concurrent submissions from different
// goroutines are safe and run one after another. Pools model a CPU socket:
// NumWorkers() plays the role of the core count T in the paper, and kernels
// that dedicate S cores to communication use a Pool of T-S workers for
// compute.
//
// The submitting goroutine participates as tid 0, so a Pool of n workers
// runs n-1 goroutines. A region body must not submit another region to the
// same pool (no nested parallelism, as in the paper's flat OpenMP regions).
type Pool struct {
	s *state
}

// NewPool returns a pool of n workers. n <= 0 selects GOMAXPROCS. The
// helper goroutines persist until Close; an unreferenced Pool is also shut
// down by the garbage collector.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &state{workers: n}
	if n > 1 {
		s.wake = make([]chan struct{}, n)
		s.exited.Add(n - 1)
		for tid := 1; tid < n; tid++ {
			s.wake[tid] = make(chan struct{}, 1)
			go func() {
				s.worker(tid)
				s.exited.Done() // outside worker: no helper loop is left once Close sees it
			}()
		}
	}
	p := &Pool{s: s}
	runtime.AddCleanup(p, func(st *state) { st.close() }, s)
	return p
}

// Default is a shared pool sized to the machine.
var Default = NewPool(0)

// NumWorkers reports the number of workers (the T in the paper's T-S split).
func (p *Pool) NumWorkers() int { return p.s.workers }

// Close shuts down the helper goroutines and returns once they have exited.
// Further use of the pool runs regions on the calling goroutine only. Close
// is idempotent and safe to call concurrently with region submission (it
// waits for a region in flight to finish); it must not be called from a
// region body.
func (p *Pool) Close() { p.s.close() }

// Closed reports whether the pool has been shut down (its helpers exited
// and regions now run serially). Lifecycle tests use this to pin ownership
// rules — e.g. that a transient pool set is closed when its run finishes.
func (p *Pool) Closed() bool { return p.s.closed.Load() }

func (s *state) close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed.Store(true)
		for tid := 1; tid < s.workers; tid++ {
			close(s.wake[tid])
		}
		s.mu.Unlock()
	})
	s.exited.Wait()
}

// worker is the persistent helper loop for tid: park on the wake channel,
// execute the published region chunk, signal completion.
func (s *state) worker(tid int) {
	for range s.wake[tid] {
		s.runChunk(tid)
		s.wg.Done()
	}
}

// runChunk executes tid's share of the current region.
func (s *state) runChunk(tid int) {
	switch s.mode {
	case modeForN:
		lo, hi := Chunk(s.n, s.active, tid)
		s.nbody(s.arg, tid, lo, hi)
	case modeWorker:
		s.wbody(s.arg, tid, s.active)
	}
}

// run publishes the region descriptor already stored in s (under s.mu),
// wakes active-1 helpers, executes tid 0's chunk inline, and waits. The
// wait is deferred so that a panic in tid 0's chunk still drains the
// helpers before unwinding, leaving the pool reusable if the panic is
// recovered upstream.
func (s *state) run(active int) {
	s.active = active
	s.wg.Add(active - 1)
	for tid := 1; tid < active; tid++ {
		s.wake[tid] <- struct{}{}
	}
	defer func() {
		s.wg.Wait()
		s.mode = modeIdle
		s.nbody, s.wbody, s.arg = nil, nil, nil
	}()
	s.runChunk(0)
}

// ForNArg runs body(arg, tid, lo, hi) on each worker with [lo,hi) a static
// chunk of [0,n). body should be a package-level function and arg a pointer
// to a persistent args struct: then the call performs no allocation, which
// is what keeps the steady-state training step allocation-free.
func (p *Pool) ForNArg(n int, body func(arg any, tid, lo, hi int), arg any) {
	s := p.s
	w := s.workers
	if w <= 1 || n <= 1 || s.closed.Load() {
		body(arg, 0, 0, n)
		return
	}
	if w > n {
		w = n
	}
	s.mu.Lock()
	defer s.mu.Unlock()  // deferred so a panicking body cannot wedge the pool
	if s.closed.Load() { // closed while waiting for the lock
		body(arg, 0, 0, n)
		return
	}
	s.mode, s.n, s.nbody, s.arg = modeForN, n, body, arg
	s.run(w)
}

// ForEachWorkerArg runs body(arg, tid, nWorkers) once per worker regardless
// of any iteration count: kernels that hand-partition 2-D iteration spaces
// (such as the blocked GEMMs of Algorithm 5, line 1) compute their own work
// assignment from tid. See ForNArg for the allocation-free calling
// convention.
func (p *Pool) ForEachWorkerArg(body func(arg any, tid, workers int), arg any) {
	s := p.s
	if s.workers <= 1 || s.closed.Load() {
		body(arg, 0, 1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		body(arg, 0, 1)
		return
	}
	s.mode, s.wbody, s.arg = modeWorker, body, arg
	s.run(s.workers)
}

// forNAdapter lets the closure-based ForN reuse the Arg machinery: the
// closure itself rides in arg (func values are pointer-shaped, so the
// conversion does not allocate — only the closure's own creation at the
// caller might).
func forNAdapter(arg any, tid, lo, hi int) { arg.(func(tid, lo, hi int))(tid, lo, hi) }

// ForN runs body(tid, lo, hi) on each worker with [lo,hi) a static chunk of
// [0,n). It blocks until every worker finishes. Chunks follow Chunk, so a
// worker may receive an empty range when n < workers. Hot paths should use
// ForNArg, which avoids the closure allocation.
func (p *Pool) ForN(n int, body func(tid, lo, hi int)) {
	p.ForNArg(n, forNAdapter, body)
}

// StateKey identifies a per-pool kernel-state attachment. Each client
// package allocates one key at init time and uses it for every pool.
type StateKey struct{ name string }

// NewStateKey returns a fresh attachment key; name is for debugging only.
func NewStateKey(name string) *StateKey { return &StateKey{name: name} }

// Attached returns the kernel state attached to the pool under key,
// invoking create(p) exactly once per (pool, key) to build it. Lookups
// after the first are allocation-free, which lets compute kernels keep
// per-pool, per-worker scratch storage (e.g. the GEMM tile pointer lists)
// alive across calls instead of reallocating it inside every parallel
// region. create must be a package-level function to keep the call site
// allocation-free.
func (p *Pool) Attached(key *StateKey, create func(p *Pool) any) any {
	if v, ok := p.s.attach.Load(key); ok {
		return v
	}
	v, _ := p.s.attach.LoadOrStore(key, create(p))
	return v
}
