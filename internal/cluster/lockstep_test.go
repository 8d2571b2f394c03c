package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/par"
)

// runEngines runs body under the lockstep engine in rank order — whose
// statistics it returns — and again resuming the ranks in reversed and in
// rotated order and as parallel goroutines, failing the test unless all
// four produce exactly the same statistics (maps compared key by key, floats
// bit by bit). It is how the package's SPMD test bodies pin "two engines, one
// simulator" and the metamorphic claim that resume order changes nothing.
func runEngines(t *testing.T, cfg Config, body func(r *Rank)) []Stats {
	t.Helper()
	want := Run(cfg, body)
	n := cfg.Ranks
	reversed, rotated := make([]int, n), make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
		rotated[i] = (i + n/2 + 1) % n
	}
	for _, alt := range []struct {
		name     string
		parallel bool
		order    []int
	}{
		{"reversed resume order", false, reversed},
		{"rotated resume order", false, rotated},
		{"goroutine engine", true, nil},
	} {
		c := cfg
		c.Parallel, c.resumeOrder = alt.parallel, alt.order
		if got := Run(c, body); !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from lockstep in rank order:\n got %+v\nwant %+v", alt.name, got, want)
		}
	}
	return want
}

// contendXchg is the args record of a collective that charges the
// contention epoch the way comm's leaders do.
type contendXchg struct {
	eng   *Engine
	topo  fabric.Topology
	loads fabric.LoadSet
	iso   float64
}

func contendLead(arg any, _ []any, start float64) float64 {
	a := arg.(*contendXchg)
	if !a.eng.Cfg.Contention {
		return a.iso
	}
	return a.eng.ChargeContended(a.topo, &a.loads, start, a.iso)
}

// TestEnginesAgreeUnderContention is the case where leader order matters:
// every leader reads and mutates the shared contention epoch, so the result
// is only reproducible because leaders run in global issue order. Skewed
// ranks keep three overlapping collectives in flight on distinct channels;
// both engines and every resume order must charge identical times.
func TestEnginesAgreeUnderContention(t *testing.T) {
	const ranks = 8
	topo := fabric.NewPrunedFatTree(64, 12.5e9)
	cfg := testCfg(ranks, CCLBackend)
	cfg.Topo, cfg.Contention = topo, true
	body := func(r *Rank) {
		// Per-rank records (the leader is whichever rank arrives last), all
		// crossing the pruned trunk so the three ops really share a link.
		var sc fabric.Scratch
		ops := make([]*contendXchg, 3)
		for i := range ops {
			x := &contendXchg{eng: r.Eng, topo: topo}
			sc.Accumulate(&x.loads)
			x.iso = sc.PhaseTime(topo, []fabric.Flow{{Src: i, Dst: 32 + i, Bytes: float64(1+i) * 1e8}})
			sc.Accumulate(nil)
			ops[i] = x
		}
		for it := 0; it < 4; it++ {
			r.Compute(1e-3 * float64(1+(r.ID*7+it)%5))
			var hs [3]Handle
			for i, x := range ops {
				hs[i] = r.CollectiveOn(fmt.Sprintf("op%d", i), i, x, x, contendLead)
				r.Compute(2e-3)
			}
			for _, h := range hs {
				r.Wait(h)
			}
		}
	}
	shared := runEngines(t, cfg, body)
	cfg.Contention = false
	alone := Run(cfg, body)
	if shared[0].CommBusy["op1"] <= alone[0].CommBusy["op1"] {
		t.Fatalf("op1 never paid for sharing the trunk: busy %g contended, %g alone",
			shared[0].CommBusy["op1"], alone[0].CommBusy["op1"])
	}
}

// mustPanic runs fn and returns the value it panicked with.
func mustPanic(t *testing.T, fn func()) (p any) {
	t.Helper()
	defer func() {
		if p = recover(); p == nil {
			t.Fatal("expected a panic")
		}
	}()
	fn()
	return nil
}

// checkNoGoroutineLeft fails unless the goroutine count falls back to at most
// before within a second, listing every goroutine's stack if it does not.
// It polls, and accepts fewer, because goroutines of earlier runs — a
// transient pool's workers — exit asynchronously: one still exiting when
// before was counted is gone by the time the count is checked.
func checkNoGoroutineLeft(t *testing.T, before int, after string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("goroutines: %d before, %d after %s\n%s", before, runtime.NumGoroutine(), after, buf[:runtime.Stack(buf, true)])
			return
		}
	}
}

// TestNonSPMDBodyIsAnErrorNotAHang: a rank that returns early, or issues
// fewer collectives than the others, used to leave them waiting forever. The
// lockstep engine sees a sweep in which nobody moved and reports the open
// collective and the ranks that will never join it — and leaves no
// coroutine behind.
func TestNonSPMDBodyIsAnErrorNotAHang(t *testing.T) {
	before := runtime.NumGoroutine()
	deferred := 0
	p := mustPanic(t, func() {
		Run(testCfg(4, CCLBackend), func(r *Rank) {
			defer func() { deferred++ }()
			r.Barrier()
			if r.ID == 2 {
				return // skips the second collective
			}
			r.Wait(r.Collective("second", nil, nil, barrierLead))
		})
	})
	msg, _ := p.(string)
	for _, want := range []string{`collective #1 ("second")`, "3 of 4 ranks", "rank(s) [2]", "SPMD"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report %q does not mention %q", msg, want)
		}
	}
	if deferred != 4 {
		t.Errorf("%d of 4 bodies ran their deferred calls; the parked ones must be unwound", deferred)
	}
	checkNoGoroutineLeft(t, before, "a deadlocked Run")

	// One rank issuing more than the rest is the same error from the other side.
	p = mustPanic(t, func() {
		Run(testCfg(3, MPIBackend), func(r *Rank) {
			r.Barrier()
			if r.ID == 0 {
				r.Barrier()
			}
		})
	})
	if msg, _ := p.(string); !strings.Contains(msg, "1 of 3 ranks") || !strings.Contains(msg, "rank(s) [1 2]") {
		t.Errorf("deadlock report %q should name ranks 1 and 2 as missing", msg)
	}
}

// TestBodyPanicIsReraisedOnTheCaller: a panic inside a lockstep body comes
// out of Run on the caller's goroutine with its value intact, after every
// other body — parked mid-rendezvous — has been unwound and the transient
// pools closed.
func TestBodyPanicIsReraisedOnTheCaller(t *testing.T) {
	type boom struct{ rank int }
	deferred := 0
	var pool *par.Pool
	usePool := false
	body := func(r *Rank) {
		defer func() { deferred++ }()
		if usePool && r.ID == 0 {
			pool = r.Pool()
		}
		r.Barrier()
		if r.ID == 3 {
			panic(boom{r.ID})
		}
		r.Barrier()
	}
	before := runtime.NumGoroutine()
	p := mustPanic(t, func() { Run(testCfg(6, CCLBackend), body) })
	if p != any(boom{3}) {
		t.Fatalf("Run panicked with %v, want the body's own value %v", p, boom{3})
	}
	if deferred != 6 {
		t.Errorf("%d of 6 bodies ran their deferred calls", deferred)
	}
	checkNoGoroutineLeft(t, before, "a panicked Run")
	// Again with a rank holding a pool of the transient set (whose workers
	// exit asynchronously, hence not part of the goroutine count above).
	usePool = true
	mustPanic(t, func() { Run(testCfg(6, CCLBackend), body) })
	if !pool.Closed() {
		t.Error("the transient pool set must be closed when Run panics")
	}
}
