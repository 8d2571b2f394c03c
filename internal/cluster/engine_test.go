package cluster

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

// ledger is one rank's charges as a test body books them from what the rank
// returns — Compute's seconds and, per label, each Handle's Busy and Wait's
// stall — plus the rank's final clock.
type ledger struct {
	Now, Compute float64
	Busy, Wait   map[string]float64
}

func newLedgers(n int) []ledger {
	ls := make([]ledger, n)
	for i := range ls {
		ls[i].Busy, ls[i].Wait = map[string]float64{}, map[string]float64{}
	}
	return ls
}

func (l *ledger) compute(r *Rank, seconds float64) { l.Compute += r.Compute(seconds) }

// issued books h's busy time under label and returns h.
func (l *ledger) issued(label string, h Handle) Handle {
	l.Busy[label] += h.Busy
	return h
}

// wait waits for h on r and books the stall under label.
func (l *ledger) wait(r *Rank, label string, h Handle) { l.Wait[label] += r.Wait(h) }

// totalWait sums the stalls in ascending label order.
func (l *ledger) totalWait() float64 {
	var sum float64
	for _, k := range slices.Sorted(maps.Keys(l.Wait)) {
		sum += l.Wait[k]
	}
	return sum
}

// runTwice runs body under Run twice and fails the test unless both runs
// book exactly the same ledgers (maps compared key by key, floats bit by
// bit): leaders run in issue order, so a result must not depend on how the
// rank goroutines happened to be scheduled. It returns the ledgers.
func runTwice(t *testing.T, cfg Config, body func(r *Rank, l *ledger)) []ledger {
	t.Helper()
	run := func() []ledger {
		ls := newLedgers(cfg.Ranks)
		Run(cfg, func(r *Rank) {
			body(r, &ls[r.ID])
			ls[r.ID].Now = r.Now()
		})
		return ls
	}
	want := run()
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("a second Run differs:\n got %+v\nwant %+v", got, want)
	}
	return want
}

// chainXchg is the args record of a collective whose leader reads and
// updates job-wide state: the latest finish any earlier leader charged.
// Overlapping that finish costs half the overlap on top of iso, so what a
// collective charges depends on which collectives led before it — the shape
// of comm's contention epoch, without its link model.
type chainXchg struct {
	last *float64 // job-wide, through Engine.Shared
	iso  float64
}

func chainLead(arg any, _ []any, start float64) float64 {
	a := arg.(*chainXchg)
	dur := a.iso
	if *a.last > start {
		dur += (*a.last - start) / 2
	}
	*a.last = start + dur
	return dur
}

// chainOps builds the three collectives of TestEnginesAgreeUnderContention
// over eng's job-wide state.
func chainOps(eng *Engine) []*chainXchg {
	last := eng.Shared(func() any { return new(float64) }).(*float64)
	ops := make([]*chainXchg, 3)
	for i := range ops {
		ops[i] = &chainXchg{last: last, iso: float64(1+i) * 1e-2}
	}
	return ops
}

// skew is rank id's compute before iteration it's collectives.
func skew(id, it int) float64 { return 1e-3 * float64(1+(id*7+it)%5) }

// TestEnginesAgreeUnderContention: the same SPMD program, run as one body
// per rank under Run and step by step for all ranks at once through
// NewRanks and CollectiveAll, charges identical times. It is the case where
// leader order matters: every leader reads and mutates job-wide state (as
// comm's contention epoch does; comm's test of the same name runs the epoch
// itself), and skewed ranks keep three overlapping collectives in flight on
// distinct channels. Both backends, each collective waited where it is
// issued (blocking) or after all three.
func TestEnginesAgreeUnderContention(t *testing.T) {
	const ranks, iters = 8, 4
	for _, backend := range []Backend{CCLBackend, MPIBackend} {
		for _, blocking := range []bool{false, true} {
			cfg := testCfg(ranks, backend)
			labels := [3]string{"op0", "op1", "op2"}
			body := func(r *Rank, l *ledger) {
				ops := chainOps(r.Eng) // per-rank records: any rank may lead
				for it := range iters {
					l.compute(r, skew(r.ID, it))
					var hs [3]Handle
					for i, x := range ops {
						hs[i] = l.issued(labels[i], r.CollectiveOn(labels[i], i, x, x, chainLead))
						if blocking {
							l.wait(r, labels[i], hs[i])
						}
						l.compute(r, 2e-3)
					}
					for i, h := range hs {
						l.wait(r, labels[i], h)
					}
				}
			}
			want := runTwice(t, cfg, body)

			rs, got := NewRanks(cfg), newLedgers(ranks)
			ops, payloads := chainOps(rs[0].Eng), make([]any, ranks)
			for it := range iters {
				for _, r := range rs {
					got[r.ID].compute(r, skew(r.ID, it))
				}
				var hs [3]Handle
				for i, x := range ops {
					hs[i] = CollectiveAll(rs, labels[i], i, payloads, x, chainLead)
					for _, r := range rs {
						got[r.ID].issued(labels[i], hs[i])
						if blocking {
							got[r.ID].wait(r, labels[i], hs[i])
						}
						got[r.ID].compute(r, 2e-3)
					}
				}
				for i, h := range hs {
					for _, r := range rs {
						got[r.ID].wait(r, labels[i], h)
					}
				}
			}
			for _, r := range rs {
				got[r.ID].Now = r.Now()
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v blocking=%v: step by step differs from Run:\n got %+v\nwant %+v", backend, blocking, got, want)
			}

			if backend == MPIBackend || blocking {
				continue // one operation in flight at a time: nothing overlaps
			}
			if alone := iters * ops[1].iso * cfg.WithDefaults().CommSlowdown(); want[0].Busy["op1"] <= alone {
				t.Errorf("op1 never overlapped an earlier leader's finish: busy %g, %g alone", want[0].Busy["op1"], alone)
			}
		}
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
// fewer collectives than the others, would leave them parked forever. Run
// sees every rank parked or finished with no rendezvous complete, reports
// the open collective and the ranks that will never join it, and unwinds
// every parked body, leaving no goroutine behind.
func TestNonSPMDBodyIsAnErrorNotAHang(t *testing.T) {
	before := runtime.NumGoroutine()
	var deferred atomic.Int32
	p := mustPanic(t, func() {
		Run(testCfg(4, CCLBackend), func(r *Rank) {
			defer deferred.Add(1)
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
	if n := deferred.Load(); n != 4 {
		t.Errorf("%d of 4 bodies ran their deferred calls; the parked ones must be unwound", n)
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

// TestBodyPanicIsReraisedOnTheCaller: a panic inside a body comes out of Run
// on the caller's goroutine with its value intact, after every other body —
// parked mid-rendezvous — has been unwound and the transient pools closed.
func TestBodyPanicIsReraisedOnTheCaller(t *testing.T) {
	type boom struct{ rank int }
	var deferred atomic.Int32
	var pool *par.Pool
	usePool := false
	body := func(r *Rank) {
		defer deferred.Add(1)
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
	if n := deferred.Load(); n != 6 {
		t.Errorf("%d of 6 bodies ran their deferred calls", n)
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

// TestRendezvousStress drives the two rendezvous slots through a long run
// of collectives on skewed ranks: each rank yields its goroutine a varying
// number of times and charges a varying compute between collectives, so
// the leader of collective k often runs on into k+1 while other ranks are
// still leaving k. Every collective's reduced value is checked on every
// rank. Then a rank returns before collective k, for k of each parity, and
// the deadlock report must name k.
func TestRendezvousStress(t *testing.T) {
	const ranks, n = 5, 1200
	want := func(k int) float64 { return float64(ranks*(ranks-1)/2 + ranks*k) }
	body := func(r *Rank, l *ledger, exitAt int) {
		for k := range n {
			if k == exitAt && r.ID == 3 {
				return
			}
			for range (r.ID*3 + k) % 4 {
				runtime.Gosched()
			}
			l.compute(r, 1e-4*float64(1+(r.ID+k)%3))
			label := [2]string{"even", "odd"}[k&1]
			got, h := sumCollective(r, l, label, float64(r.ID+k), 1e-4)
			if got != want(k) {
				t.Errorf("rank %d collective %d: sum %v, want %v", r.ID, k, got, want(k))
			}
			if k%3 == 0 {
				l.wait(r, label, h)
			}
		}
	}
	runTwice(t, testCfg(ranks, CCLBackend), func(r *Rank, l *ledger) { body(r, l, -1) })

	for _, exitAt := range []int{1000, 1001} {
		p := mustPanic(t, func() {
			Run(testCfg(ranks, MPIBackend), func(r *Rank) { body(r, &newLedgers(1)[0], exitAt) })
		})
		msg, _ := p.(string)
		head := fmt.Sprintf(`collective #%d (%q) has 4 of 5 ranks waiting and rank(s) [3]`, exitAt, [2]string{"even", "odd"}[exitAt&1])
		if !strings.Contains(msg, head) {
			t.Errorf("exit before collective %d: report %q does not say %q", exitAt, msg, head)
		}
	}
}
