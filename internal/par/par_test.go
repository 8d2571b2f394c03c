package par

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestChunkCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 28, 100, 1023} {
		for _, parts := range []int{1, 2, 3, 7, 28, 56} {
			next := 0
			for tid := 0; tid < parts; tid++ {
				lo, hi := Chunk(n, parts, tid)
				if lo != next {
					t.Fatalf("n=%d parts=%d tid=%d: lo=%d want %d", n, parts, tid, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d parts=%d tid=%d: hi=%d < lo=%d", n, parts, tid, hi, lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: coverage ends at %d", n, parts, next)
			}
		}
	}
}

func TestChunkBalance(t *testing.T) {
	// Chunks differ in size by at most 1.
	prop := func(n uint16, parts uint8) bool {
		nn, pp := int(n), int(parts)
		if pp == 0 {
			pp = 1
		}
		minSz, maxSz := nn, 0
		for tid := 0; tid < pp; tid++ {
			lo, hi := Chunk(nn, pp, tid)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkDefaultParts(t *testing.T) {
	lo, hi := Chunk(10, 0, 3)
	if lo != 0 || hi != 10 {
		t.Fatalf("parts<=0 should return full range, got [%d,%d)", lo, hi)
	}
}

func TestForNVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		p := NewPool(workers)
		defer p.Close()
		const n = 1000
		counts := make([]int32, n)
		p.ForN(n, func(tid, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForNSmallN(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var visited int32
	p.ForN(1, func(tid, lo, hi int) {
		atomic.AddInt32(&visited, int32(hi-lo))
	})
	if visited != 1 {
		t.Fatalf("visited %d, want 1", visited)
	}
	p.ForN(0, func(tid, lo, hi int) {
		atomic.AddInt32(&visited, int32(hi-lo))
	})
	if visited != 1 {
		t.Fatalf("n=0 must visit nothing")
	}
}

func TestForEachWorkerRunsAll(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	seen := make([]int32, 6)
	p.ForEachWorkerArg(func(_ any, tid, workers int) {
		if workers != 6 {
			t.Errorf("workers=%d want 6", workers)
		}
		atomic.AddInt32(&seen[tid], 1)
	}, nil)
	for tid, c := range seen {
		if c != 1 {
			t.Fatalf("tid %d ran %d times", tid, c)
		}
	}
}

type sumArgs struct {
	counts []int32
}

func sumBody(arg any, tid, lo, hi int) {
	a := arg.(*sumArgs)
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&a.counts[i], 1)
	}
}

func TestForNArgVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		p := NewPool(workers)
		const n = 1000
		a := &sumArgs{counts: make([]int32, n)}
		p.ForNArg(n, sumBody, a)
		for i, c := range a.counts {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
		p.Close()
	}
}

func TestForNArgZeroAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	a := &sumArgs{counts: make([]int32, 256)}
	allocs := testing.AllocsPerRun(100, func() {
		p.ForNArg(256, sumBody, a)
	})
	if allocs != 0 {
		t.Fatalf("ForNArg allocated %v times per run, want 0", allocs)
	}
}

func TestPoolReuseManyRegions(t *testing.T) {
	// Persistent workers must survive thousands of handoffs.
	p := NewPool(7)
	defer p.Close()
	var total int64
	for i := 0; i < 2000; i++ {
		p.ForN(97, func(tid, lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
	}
	if total != 2000*97 {
		t.Fatalf("total=%d want %d", total, 2000*97)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	// Simulated ranks share one pool (see core/dist_test.go); regions from
	// different goroutines must serialize, not corrupt each other.
	p := NewPool(3)
	defer p.Close()
	const goroutines, n = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	results := make([][]int32, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			counts := make([]int32, n)
			for iter := 0; iter < 50; iter++ {
				p.ForN(n, func(tid, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
			}
			results[g] = counts
		}(g)
	}
	wg.Wait()
	for g, counts := range results {
		for i, c := range counts {
			if c != 50 {
				t.Fatalf("goroutine %d index %d visited %d times, want 50", g, i, c)
			}
		}
	}
}

func TestPanicInBodyDoesNotWedgePool(t *testing.T) {
	// A panic that is recovered upstream must leave the pool usable (mutex
	// released, every helper-started chunk joined). In tid 0's chunk, the
	// submitter's own, the submitter leaves tids 1..3 to the helpers, and the
	// region ends only once they have run.
	p := NewPool(4)
	defer p.Close()
	var helpers atomic.Int32
	if !panicked(p, func(tid, lo, hi int) {
		if tid == 0 {
			panic("kernel failure")
		}
		helpers.Add(1)
	}) {
		t.Fatal("expected the panic in tid 0's chunk to propagate")
	}
	if got := helpers.Load(); got != 3 {
		t.Fatalf("%d of 3 helper chunks ran before the panic propagated", got)
	}
	reusable(t, p)

	// In a helper's chunk that the submitter ran, because the helper had not
	// started it: nearly always the case right after the helper parks.
	p2 := NewPool(2)
	defer p2.Close()
	for try := 0; ; try++ {
		if try == 1000 {
			t.Fatal("the submitter never ran the helper's chunk in 1000 regions")
		}
		for !p2.s.team[1].parked.Load() {
			time.Sleep(10 * time.Microsecond)
		}
		if panicked(p2, func(tid, lo, hi int) {
			if tid == 1 && !onHelper() {
				panic("kernel failure")
			}
		}) {
			break
		}
	}
	reusable(t, p2)
}

// panicked runs a 100-item region of body on p and reports whether it
// panicked.
func panicked(p *Pool, body func(tid, lo, hi int)) (yes bool) {
	defer func() { yes = recover() != nil }()
	p.ForN(100, body)
	return false
}

// reusable fails t unless a region on p visits each of its items once.
func reusable(t *testing.T, p *Pool) {
	t.Helper()
	var total int32
	p.ForN(50, func(tid, lo, hi int) {
		atomic.AddInt32(&total, int32(hi-lo))
	})
	if total != 50 {
		t.Fatalf("pool wedged after recovered panic: total=%d", total)
	}
}

// TestLateWakeSkipsNextJoin replays, step by step on a bare state, a helper
// held between the decrement that ends region 1 and its wake-up of region 1's
// join. Region 1's join returns without the wake-up (it saw the count reach
// 0 while polling); region 2's join parks on a chunk another helper still
// runs. The held helper's wake-up must not end region 2's join.
func TestLateWakeSkipsNextJoin(t *testing.T) {
	s := &state{joined: make(chan struct{}, 1)}
	s.left.Add(-1) // region 1: its one helper chunk finishes, then the helper is held
	s.join(1, 1)   // ...and the join sees the count at 0
	done := make(chan struct{})
	go func() {
		s.join(2, 1) // region 2: one helper chunk, still running
		close(done)
	}()
	for s.joining.Load() != 2 {
		time.Sleep(10 * time.Microsecond)
	}
	s.wakeJoin(1) // the held helper resumes
	select {
	case <-done:
		t.Fatal("a wake-up from region 1 ended region 2's join while its chunk ran")
	case <-time.After(20 * time.Millisecond):
	}
	s.finish(2)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("region 2's join did not return once its chunk finished")
	}
}

// onHelper reports whether the calling goroutine is a pool helper.
func onHelper() bool {
	buf := make([]byte, 4096)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "par.(*state).worker(")
}

// chunkRecord counts the runs of one (region, tid) and keeps the range the
// last one got.
type chunkRecord struct {
	runs   atomic.Int32
	lo, hi atomic.Int64
}

type recordArgs struct {
	region, workers int
	recs            []chunkRecord // region*workers + tid
}

func recordBody(arg any, tid, lo, hi int) {
	a := arg.(*recordArgs)
	r := &a.recs[a.region*a.workers+tid]
	r.runs.Add(1)
	r.lo.Store(int64(lo))
	r.hi.Store(int64(hi))
}

// TestEveryChunkRunsOnce records (region, tid, lo, hi) over 10⁴ regions of
// a 4-worker pool, with item counts below, at and above the worker count and
// a pause now and then that lets the helpers park: every chunk of every
// region runs exactly once — on its helper or on the submitter — with
// Chunk's range, and a tid past the region's partitions runs nothing.
func TestEveryChunkRunsOnce(t *testing.T) {
	const workers, regions = 4, 10_000
	p := NewPool(workers)
	defer p.Close()
	a := &recordArgs{workers: workers, recs: make([]chunkRecord, regions*workers)}
	ns := make([]int, regions)
	for r := range ns {
		a.region = r
		ns[r] = r % 7
		if r%1000 == 999 {
			time.Sleep(100 * time.Microsecond)
		}
		p.ForNArg(ns[r], recordBody, a)
	}
	for r, n := range ns {
		active := min(workers, n)
		if n <= 1 {
			active = 1
		}
		for tid := 0; tid < workers; tid++ {
			rec := &a.recs[r*workers+tid]
			want := int32(0)
			if tid < active {
				want = 1
			}
			if got := rec.runs.Load(); got != want {
				t.Fatalf("region %d (n=%d) tid %d ran %d times, want %d", r, n, tid, got, want)
			}
			if want == 0 {
				continue
			}
			lo, hi := Chunk(n, active, tid)
			if n <= 1 {
				lo, hi = 0, n
			}
			if rec.lo.Load() != int64(lo) || rec.hi.Load() != int64(hi) {
				t.Fatalf("region %d (n=%d) tid %d ran [%d,%d), want [%d,%d)", r, n, tid, rec.lo.Load(), rec.hi.Load(), lo, hi)
			}
		}
	}
}

// TestRegionWithParkedHelper submits regions only once the helper has
// parked: each still runs every index once.
func TestRegionWithParkedHelper(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for i := 0; i < 20; i++ {
		for !p.s.team[1].parked.Load() {
			time.Sleep(10 * time.Microsecond)
		}
		a := &sumArgs{counts: make([]int32, 64)}
		p.ForNArg(64, sumBody, a)
		for j, c := range a.counts {
			if c != 1 {
				t.Fatalf("region %d: index %d visited %d times", i, j, c)
			}
		}
	}
}

// TestRegionWithHelperBusyInAnotherPool runs regions whose every chunk
// submits a region to a second pool, so the first pool's helper waits there
// (for the second pool's mutex or its join) while its own submitter finishes:
// every region of both pools still completes, each index once.
func TestRegionWithHelperBusyInAnotherPool(t *testing.T) {
	outer, inner := NewPool(3), NewPool(3)
	defer outer.Close()
	defer inner.Close()
	const n = 40
	counts := make([]int32, n*n)
	for iter := 0; iter < 50; iter++ {
		clear(counts)
		outer.ForN(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				inner.ForN(n, func(_, lo2, hi2 int) {
					for j := lo2; j < hi2; j++ {
						atomic.AddInt32(&counts[i*n+j], 1)
					}
				})
			}
		})
		for k, c := range counts {
			if c != 1 {
				t.Fatalf("iteration %d: index %d visited %d times", iter, k, c)
			}
		}
	}
}

func TestCloseFallsBackToSerial(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	var visited int32
	p.ForN(100, func(tid, lo, hi int) {
		if tid != 0 {
			t.Errorf("closed pool used helper tid %d", tid)
		}
		atomic.AddInt32(&visited, int32(hi-lo))
	})
	if visited != 100 {
		t.Fatalf("visited %d want 100", visited)
	}
	p.ForEachWorkerArg(func(_ any, tid, workers int) {
		if workers != 1 {
			t.Errorf("closed pool reported %d workers", workers)
		}
	}, nil)
}

// TestCloseJoinsHelpers pins that Close returns only once the pool's helper
// goroutines have exited: the count of goroutines in a helper loop is back to
// its value before NewPool when Close returns, with no waiting. (The count of
// all goroutines would also move with the test runner's own.)
func TestCloseJoinsHelpers(t *testing.T) {
	startHelpers(Default)
	for _, workers := range []int{2, 5, 16} {
		before := helpers()
		p := NewPool(workers)
		startHelpers(p)
		if got := helpers(); got != before+workers-1 {
			t.Fatalf("workers=%d: %d helper goroutines with the pool open, want %d", workers, got, before+workers-1)
		}
		p.Close()
		if got := helpers(); got != before {
			t.Fatalf("workers=%d: %d helper goroutines when Close returned, %d before NewPool", workers, got, before)
		}
	}
}

// TestCloseByCleanup drops two pools unclosed, one after the other: the
// runtime cleanup closes each (Close waits there for the helpers too), so
// the first wait must not wedge the cleanup queue the second needs.
func TestCloseByCleanup(t *testing.T) {
	startHelpers(Default)
	before := helpers()
	for i := 0; i < 2; i++ {
		func() { startHelpers(NewPool(4)) }()
		for deadline := time.Now().Add(10 * time.Second); helpers() != before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("pool %d: %d helper goroutines 10 s after it became unreachable, %d before", i, helpers(), before)
			}
			runtime.GC()
		}
	}
}

// startHelpers returns once every helper of p has entered its loop, where
// helpers() counts it: a helper goroutine the scheduler has not started has
// no worker frame, and since the submitter may run every chunk of a region,
// a region alone does not start one. Here tid 0's chunk, which the
// submitter runs first, waits until every other tid's chunk has run, and
// only the helpers can run those meanwhile. (The frame that every helper
// has from creation, its goroutine's entry, is no substitute: it outlives
// the helper's exited.Done, so a helper may still show it when Close
// returns.)
func startHelpers(p *Pool) {
	var ran atomic.Int32
	p.ForEachWorkerArg(func(_ any, tid, workers int) {
		if tid != 0 {
			ran.Add(1)
			return
		}
		for ran.Load() < int32(workers-1) {
			runtime.Gosched()
		}
	}, nil)
}

// helpers counts the goroutines in a pool's helper loop, every pool's, from
// a dump of all goroutine stacks.
func helpers() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "par.(*state).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

var testKey = NewStateKey("par-test")

type attachState struct{ created int32 }

func newAttachState(p *Pool) any { return &attachState{created: 1} }

func TestAttachedCreatesOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	v1 := p.Attached(testKey, newAttachState).(*attachState)
	v2 := p.Attached(testKey, newAttachState).(*attachState)
	if v1 != v2 {
		t.Fatal("Attached returned different values for the same key")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if p.Attached(testKey, newAttachState) != v1 {
			t.Fatal("Attached changed value")
		}
	})
	if allocs != 0 {
		t.Fatalf("Attached hit path allocated %v times per run, want 0", allocs)
	}
}

func TestNewPoolDefaults(t *testing.T) {
	p := NewPool(-1)
	defer p.Close()
	if p.NumWorkers() <= 0 {
		t.Fatal("default pool must have at least one worker")
	}
	p3 := NewPool(3)
	defer p3.Close()
	if p3.NumWorkers() != 3 {
		t.Fatal("explicit worker count not honored")
	}
}

// spinArgs is BenchmarkRegion's body state: iters dependent multiply-adds
// per chunk, each tid's result kept on its own cache line.
type spinArgs struct {
	iters int
	sink  [][8]float64
}

func spinBody(arg any, tid, lo, hi int) {
	a := arg.(*spinArgs)
	x := float64(tid)
	for i := 0; i < a.iters; i++ {
		x = x*0.999999 + 1e-9
	}
	a.sink[tid][0] = x
}

// BenchmarkRegion times one parallel region of NumWorkers equal chunks on
// Default at chunk lengths of about 1, 10, 40 and 160 µs: ns/op is the
// region, speedup the serial time of its chunks (each timed alone, the
// median of 21) over the region's.
func BenchmarkRegion(b *testing.B) {
	w := Default.NumWorkers()
	a := &spinArgs{sink: make([][8]float64, w)}
	perUS := itersPerMicrosecond(a)
	for _, us := range []int{1, 10, 40, 160} {
		b.Run(fmt.Sprintf("chunk=%dus", us), func(b *testing.B) {
			a.iters = us * perUS
			serial := make([]time.Duration, 21)
			for i := range serial {
				t0 := time.Now()
				spinBody(a, 0, 0, 1)
				serial[i] = time.Since(t0)
			}
			slices.Sort(serial)
			Default.ForNArg(w, spinBody, a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Default.ForNArg(w, spinBody, a)
			}
			region := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(w)*float64(serial[len(serial)/2].Nanoseconds())/region, "speedup")
		})
	}
}

// itersPerMicrosecond calibrates spinBody: its iteration count per µs.
func itersPerMicrosecond(a *spinArgs) int {
	a.iters = 1 << 16
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		spinBody(a, 0, 0, 1)
		best = min(best, time.Since(t0))
	}
	return max(1, int(float64(a.iters)*float64(time.Microsecond)/float64(best)))
}

// TestSpinCapFollowsGOMAXPROCS lowers GOMAXPROCS to 1 under a pool in
// constant use: within capEvery regions nothing may poll any more.
func TestSpinCapFollowsGOMAXPROCS(t *testing.T) {
	defer func(procs int) {
		runtime.GOMAXPROCS(procs)
		readSpinCap() // later tests poll as before
	}(runtime.GOMAXPROCS(0))
	p := NewPool(2)
	defer p.Close()
	a := &sumArgs{counts: make([]int32, 64)}
	for range capEvery {
		p.ForNArg(64, sumBody, a)
	}
	runtime.GOMAXPROCS(1)
	for range capEvery {
		p.ForNArg(64, sumBody, a)
	}
	if c := spinCap.Load(); c > 0 {
		t.Fatalf("spinCap %d at GOMAXPROCS 1", c)
	}
}
