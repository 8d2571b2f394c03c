// Package par provides the thread-level parallel substrate used by every
// compute kernel in this repository. It is the Go substitute for the OpenMP
// `#pragma omp parallel for` constructs in the paper: a fixed-size worker
// pool with static range partitioning, so that the same data decompositions
// (and the same race conditions, and the same fixes) arise as in the C++
// kernels the paper describes.
//
// Workers are persistent and behave like an OpenMP thread team between
// regions: NewPool launches its goroutines once; the submitter publishes
// each region with one atomic store of its epoch; a helper polls for the
// next epoch for a short budget before it parks, so back-to-back regions
// (DLRM's hot loop issues dozens per iteration) reach a running helper
// instead of waking a parked one. Each chunk is claimed by a CAS on its
// tid's epoch stamp, by its helper or by the submitter, which runs every
// chunk no helper has started once its own is done: a helper the scheduler
// starts late costs a failed CAS, not a wait. The join polls, without
// yielding, only for chunks a running helper holds, and parks after the same
// budget. No region creates a goroutine or allocates. See docs/PERF.md for
// the protocol and the measurements behind the budget. No goroutine polls
// when min(GOMAXPROCS, NumCPU) is 1; GOMAXPROCS is read by NewPool, by a
// helper as it parks and every 64th region, so a pool in constant use
// follows a change of it within 64 regions.
//
// Work items are closures receiving (tid, lo, hi) half-open ranges, and
// partitioning is the exact integer split the paper's Algorithm 4 uses:
//
//	lo = (n * tid) / nThreads
//	hi = (n * (tid+1)) / nThreads
//
// A body's result may depend only on (tid, lo, hi), never on which goroutine
// runs it, and a body must never wait for another tid's chunk: the submitter
// may run several tids' chunks one after another.
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
	"time"
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

const (
	// spinBudget is how long a waiting helper polls for the next region, and
	// the join for its helpers' chunks, before parking (docs/PERF.md gives
	// the paired runs that chose it).
	spinBudget = 20 * time.Microsecond
	// pollsPerYield is how many polls a spinning helper makes between
	// yields, and the join between clock reads.
	pollsPerYield = 32
	// capEvery is how many regions a pool runs between reads of spinCap's
	// inputs, besides the reads by NewPool and by a parking helper.
	capEvery = 64
)

// spinners counts the helpers polling for a region, process-wide, and
// spinCap bounds it at min(GOMAXPROCS, NumCPU) − 1, so that with one CPU no
// goroutine busy-waits; a join polls only while spinCap is above 0. The join
// does not count itself among the spinners: it polls only while a helper
// holding a chunk runs, which the helper's own CPU pays for.
// runtime.GOMAXPROCS takes the scheduler lock, so the cap is read by NewPool,
// when a helper parks and every capEvery regions, not per poll: after a
// GOMAXPROCS change a pool in constant use polls by the old cap for at most
// capEvery regions.
var spinners, spinCap atomic.Int32

func readSpinCap() {
	spinCap.Store(int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU()) - 1))
}

// member is helper tid's slot, padded to a cache line: the helper and the
// submitter both write it in every region.
type member struct {
	claim  atomic.Uint64 // epoch of the last region whose tid chunk was started, by anyone
	parked atomic.Bool   // set by the helper before it blocks on wake, cleared by whoever wakes it
	wake   chan struct{} // buffered 1: a token per cleared parked flag
	_      [40]byte
}

// start claims tid's chunk of region e: false if someone already has. Every
// claim stands at e-1 when region e is published (each chunk of a region is
// started, or stamped if its tid sits the region out), so a helper still
// holding an older epoch never takes a newer region's chunk.
func (m *member) start(e uint64) bool {
	return m.claim.Load() == e-1 && m.claim.CompareAndSwap(e-1, e)
}

// state is the part of a pool shared with its worker goroutines. It is
// split from Pool so that an abandoned Pool can be garbage collected: the
// workers reference only the state, and a runtime cleanup on the Pool shuts
// them down once the Pool itself becomes unreachable.
type state struct {
	epoch atomic.Uint64 // the last region published; polled by spinning helpers
	_     [56]byte

	workers int         // immutable after NewPool
	closed  atomic.Bool // set by close; closed pools run regions serially

	// mu serializes parallel regions: concurrent submitters (e.g. simulated
	// ranks sharing one pool) queue up rather than corrupting the region
	// descriptor below.
	mu     sync.Mutex
	team   []member       // team[tid] for helper tid 1..workers-1
	exited sync.WaitGroup // one per helper goroutine, done as it ends

	// Join: left counts helper-started chunks still running (helpers
	// subtract as they finish, the submitter adds how many they started);
	// the join of region e parks by setting joining to e, and the helper that
	// brings left to 0 in region e sends it a token on joined if joining
	// still holds e. A helper delayed between the two steps may get there
	// after its region's join has returned; the epoch keeps it from waking
	// a later region's join.
	left    atomic.Int64
	joining atomic.Uint64
	joined  chan struct{}

	// Region descriptor, written under mu before the epoch store that
	// publishes it, and read by a helper only after it has claimed a chunk of
	// that epoch; the join orders those reads before the next region's
	// writes.
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
	readSpinCap()
	s := &state{workers: n}
	if n > 1 {
		s.team = make([]member, n)
		s.joined = make(chan struct{}, 1)
		s.exited.Add(n - 1)
		for tid := 1; tid < n; tid++ {
			s.team[tid].wake = make(chan struct{}, 1)
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
			close(s.team[tid].wake)
		}
		s.mu.Unlock()
	})
	s.exited.Wait()
}

// worker is the persistent helper loop for tid: wait for the next region,
// run tid's chunk of it unless the submitter already has, report it done.
func (s *state) worker(tid int) {
	m := &s.team[tid]
	var seen uint64
	for {
		e, ok := s.await(m, seen)
		if !ok {
			return
		}
		seen = e
		if m.start(e) {
			s.runChunk(tid)
			s.finish(e)
		}
	}
}

// await returns the first epoch after seen: it polls for spinBudget when
// fewer than spinCap helpers are polling, yielding every pollsPerYield polls
// so that a goroutine waiting for this CPU (the loader's, another rank's)
// still runs, then parks on m.wake. ok is false once the pool is closed.
func (s *state) await(m *member, seen uint64) (e uint64, ok bool) {
	if spinners.Add(1) <= spinCap.Load() {
		start := time.Now()
		for i := 1; ; i++ {
			if e = s.epoch.Load(); e != seen {
				spinners.Add(-1)
				return e, true
			}
			if i%pollsPerYield == 0 {
				runtime.Gosched()
				if time.Since(start) > spinBudget {
					break
				}
			}
		}
	}
	spinners.Add(-1)
	readSpinCap()
	m.parked.Store(true)
	if e = s.epoch.Load(); e != seen && m.parked.CompareAndSwap(true, false) {
		return e, true
	}
	// Parked, or a submitter cleared the flag and is sending the token.
	if _, ok = <-m.wake; !ok {
		return 0, false
	}
	return s.epoch.Load(), true
}

// finish reports a helper's chunk of region e done, waking region e's
// join if it was the last.
func (s *state) finish(e uint64) {
	if s.left.Add(-1) == 0 {
		s.wakeJoin(e)
	}
}

// wakeJoin hands region e's join its token if that join has parked.
func (s *state) wakeJoin(e uint64) {
	if s.joining.CompareAndSwap(e, 0) {
		s.joined <- struct{}{}
	}
}

// join returns once the k chunks helpers started in region e are done: it
// polls without yielding (a helper holding a chunk is running) for
// spinBudget, then parks.
func (s *state) join(e uint64, k int) {
	if s.left.Add(int64(k)) == 0 {
		return
	}
	if spinCap.Load() > 0 {
		for i, start := 1, time.Now(); ; i++ {
			if s.left.Load() == 0 {
				return
			}
			if i%pollsPerYield == 0 && time.Since(start) > spinBudget {
				break
			}
		}
	}
	s.joining.Store(e)
	if s.left.Load() == 0 && s.joining.CompareAndSwap(e, 0) {
		return
	}
	<-s.joined
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

// run publishes the region descriptor already stored in s (under s.mu) as
// the next epoch, wakes the parked helpers among tids 1..active-1, runs tid
// 0's chunk and then every chunk no helper has started, and joins the rest.
// The join is deferred so that a panic in a chunk the submitter runs still
// drains the helpers (which start every chunk the submitter left) before
// unwinding, leaving the pool reusable if the panic is recovered upstream.
func (s *state) run(active int) {
	e := s.epoch.Load() + 1
	if e%capEvery == 0 {
		readSpinCap()
	}
	s.active = active
	for tid := active; tid < s.workers; tid++ {
		s.team[tid].claim.Store(e) // no chunk in this region
	}
	s.epoch.Store(e)
	for tid := 1; tid < active; tid++ {
		if m := &s.team[tid]; m.parked.Load() && m.parked.CompareAndSwap(true, false) {
			m.wake <- struct{}{}
		}
	}
	mine := 0 // helper chunks the submitter started; helpers start the rest
	defer func() {
		s.join(e, active-1-mine)
		s.mode = modeIdle
		s.nbody, s.wbody, s.arg = nil, nil, nil
	}()
	s.runChunk(0)
	for tid := 1; tid < active; tid++ {
		if s.team[tid].start(e) {
			mine++
			s.runChunk(tid)
		}
	}
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
