package data

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mustPanic runs fn and returns the value it panicked with, failing the
// test if it returned.
func mustPanic(t *testing.T, fn func()) (p any) {
	t.Helper()
	defer func() { p = recover() }()
	fn()
	t.Fatal("did not panic")
	return nil
}

// noLeak fails the test unless the goroutine count falls back to at most
// before: a leaked helper only raises it, and one still exiting when before
// was read only lowers it.
func noLeak(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the ring", runtime.NumGoroutine(), before)
		}
	}
}

// TestPrefetchOrderAndRefill: items arrive in order, and the fill of item
// j+2 never starts before the consumer has moved past item j — the slot the
// consumer holds keeps its item however long the consumer dawdles.
func TestPrefetchOrderAndRefill(t *testing.T) {
	const n = 12
	var slots [2]int
	var moved atomic.Int64 // items the consumer has moved past
	var early atomic.Int64 // fills that started too soon, +1 each
	ring := NewPrefetch(slots[:], n, func(j int, slot *int) {
		if j >= len(slots) && moved.Load() < int64(j-len(slots)+1) {
			early.Add(1)
		}
		*slot = j
	})
	defer ring.Close()
	for k := 0; k < n; k++ {
		moved.Store(int64(k)) // Next for item k releases items 0..k-1
		got := ring.Next()
		if *got != k {
			t.Fatalf("Next %d returned item %d", k, *got)
		}
		time.Sleep(100 * time.Microsecond) // let a premature fill land
		if *got != k {
			t.Fatalf("item %d's slot was refilled with %d while the consumer held it", k, *got)
		}
	}
	if e := early.Load(); e != 0 {
		t.Fatalf("%d fills started before their slot was released", e)
	}
}

// TestPrefetchBounded: a ring of n items fills exactly n, and a Next past
// the n-th panics instead of handing back a stale slot.
func TestPrefetchBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	var fills atomic.Int64
	var slots [2]int
	ring := NewPrefetch(slots[:], 3, func(j int, slot *int) { fills.Add(1); *slot = j })
	for k := 0; k < 3; k++ {
		if got := *ring.Next(); got != k {
			t.Fatalf("Next %d returned item %d", k, got)
		}
	}
	p := mustPanic(t, func() { ring.Next() })
	if msg, _ := p.(string); !strings.Contains(msg, "item 3 of 3") {
		t.Fatalf("Next past the end panicked with %v", p)
	}
	ring.Close()
	if f := fills.Load(); f != 3 {
		t.Fatalf("%d fills for a 3-item ring", f)
	}
	noLeak(t, before)
}

// TestPrefetchCloseJoins: Close is idempotent and joins a helper blocked on
// a full ring, before any Next and part-way through, leaving no goroutine
// behind; a Next after Close panics.
func TestPrefetchCloseJoins(t *testing.T) {
	for _, taken := range []int{0, 1, 5} {
		t.Run(fmt.Sprint(taken, " taken"), func(t *testing.T) {
			before := runtime.NumGoroutine()
			var slots [2]int
			var fills atomic.Int64
			ring := NewPrefetch(slots[:], -1, func(j int, slot *int) { fills.Add(1); *slot = j })
			for k := 0; k < taken; k++ {
				ring.Next()
			}
			// Full: the item the consumer holds and the one after it, or
			// both slots before the first Next.
			full := int64(max(taken+1, len(slots)))
			for fills.Load() < full {
				time.Sleep(100 * time.Microsecond)
			}
			ring.Close()
			ring.Close()
			if f := fills.Load(); f != full {
				t.Fatalf("%d fills with %d items taken from a full two-slot ring", f, taken)
			}
			mustPanic(t, func() { ring.Next() })
			noLeak(t, before)
		})
	}
}

// TestPrefetchFillPanic: a fill's panic comes out on the consumer, once — by
// the Next that would have returned the item, or else by Close.
func TestPrefetchFillPanic(t *testing.T) {
	fill := func(reached chan struct{}) func(int, *int) {
		return func(j int, slot *int) {
			if j == 2 {
				close(reached)
				panic("fill 2 panics")
			}
			*slot = j
		}
	}
	t.Run("Next", func(t *testing.T) {
		before := runtime.NumGoroutine()
		var slots [2]int
		ring := NewPrefetch(slots[:], -1, fill(make(chan struct{})))
		ring.Next()
		ring.Next()
		if p := mustPanic(t, func() { ring.Next() }); p != "fill 2 panics" {
			t.Fatalf("Next panicked with %v", p)
		}
		ring.Close() // raised already: Close only joins
		noLeak(t, before)
	})
	t.Run("Close", func(t *testing.T) {
		before := runtime.NumGoroutine()
		var slots [2]int
		reached := make(chan struct{})
		ring := NewPrefetch(slots[:], -1, fill(reached))
		ring.Next() // releases nothing: item 2 waits for item 0's slot
		ring.Next() // releases item 0: item 2's fill runs and panics
		<-reached
		if p := mustPanic(t, ring.Close); p != "fill 2 panics" {
			t.Fatalf("Close panicked with %v", p)
		}
		ring.Close()
		noLeak(t, before)
	})
}
