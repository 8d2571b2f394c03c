package data

import (
	"fmt"
	"sync"
)

// Prefetch overlaps producing items with consuming them, the move the paper
// makes to hide input work behind kernels that do not depend on it: one
// helper goroutine fills item j into slots[j%len(slots)] while the consumer
// works on earlier items. The slots are the caller's, so their storage
// outlives the ring and a steady-state item allocates nothing. A slot is
// refilled only after the consumer has moved past the item that held it;
// the channel hand-offs publish each fill. Next and Close belong to one
// consumer goroutine, and a fill's panic reaches it: raised by the Next
// that would have returned the item, or else by Close.
type Prefetch[T any] struct {
	slots    []T
	n, next  int           // items to fill (< 0: until Close), items handed out
	free     chan struct{} // a token per slot the helper may fill
	filled   chan struct{} // a token per filled slot; closed as the helper exits
	stop     chan struct{}
	stopOnce sync.Once
	panicked any // the fill's panic, read once filled is closed
	raised   bool
}

// NewPrefetch starts the helper filling n items (n < 0: until Close) into
// slots with fill(j, &slots[j%len(slots)]).
func NewPrefetch[T any](slots []T, n int, fill func(j int, slot *T)) *Prefetch[T] {
	// At most len(slots) tokens of either kind are ever outstanding, so with
	// that buffer no send blocks.
	p := &Prefetch[T]{slots: slots, n: n, free: make(chan struct{}, len(slots)),
		filled: make(chan struct{}, len(slots)), stop: make(chan struct{})}
	for range slots {
		p.free <- struct{}{}
	}
	go func() {
		defer close(p.filled)
		defer func() { p.panicked = recover() }()
		for j := 0; n < 0 || j < n; j++ {
			select {
			case <-p.free:
			case <-p.stop:
				return
			}
			fill(j, &slots[j%len(slots)])
			p.filled <- struct{}{}
		}
	}()
	return p
}

// Next releases the previous item's slot for refilling and returns the next
// item, valid until the following Next. A Next past the n-th item, or after
// Close, panics.
func (p *Prefetch[T]) Next() *T {
	if p.n >= 0 && p.next >= p.n {
		panic(fmt.Sprintf("data: Prefetch.Next for item %d of %d", p.next, p.n))
	}
	if p.next > 0 {
		p.free <- struct{}{}
	}
	if _, ok := <-p.filled; !ok {
		p.Close() // raises the fill's panic, if any is left to raise
		panic("data: Prefetch.Next after Close")
	}
	p.next++
	return &p.slots[(p.next-1)%len(p.slots)]
}

// Close stops the helper and waits for it to exit, so a successor ring over
// the same slots never races a stale fill, then raises a fill's panic that
// Next has not raised. It is idempotent.
func (p *Prefetch[T]) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	for range p.filled { // the helper closes filled as it exits
	}
	if p.panicked != nil && !p.raised {
		p.raised = true
		panic(p.panicked)
	}
}
