package par

import (
	"runtime"
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
	// A panic in tid 0's chunk (the submitter's inline share) that is
	// recovered upstream must leave the pool usable: mutex released,
	// WaitGroup drained.
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic to propagate")
			}
		}()
		p.ForN(100, func(tid, lo, hi int) {
			if tid == 0 {
				panic("kernel failure")
			}
		})
	}()
	var total int32
	p.ForN(50, func(tid, lo, hi int) {
		atomic.AddInt32(&total, int32(hi-lo))
	})
	if total != 50 {
		t.Fatalf("pool wedged after recovered panic: total=%d", total)
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
	startDefault()
	for _, workers := range []int{2, 5, 16} {
		before := helpers()
		p := NewPool(workers)
		p.ForN(100, func(tid, lo, hi int) {})
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
	startDefault()
	before := helpers()
	for i := 0; i < 2; i++ {
		func() { NewPool(4).ForN(100, func(tid, lo, hi int) {}) }()
		for deadline := time.Now().Add(10 * time.Second); helpers() != before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("pool %d: %d helper goroutines 10 s after it became unreachable, %d before", i, helpers(), before)
			}
			runtime.GC()
		}
	}
}

// startDefault runs a region on Default, the one pool these tests leave
// open: a helper goroutine enters its loop only once it is first scheduled,
// and until then it is not counted.
func startDefault() { Default.ForEachWorkerArg(func(any, int, int) {}, nil) }

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
