package fabric

import (
	"math"
	"testing"
)

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestNewDegradedValidatesFactors(t *testing.T) {
	base := NewPrunedFatTree(64, 12.5e9)
	// The documented domain is (0, 1]: a zero/negative factor used to be
	// silently ignored by the bandwidth lookup and a factor > 1 sped the
	// link up — both now panic at construction.
	mustPanic(t, "factor 0", func() { NewDegraded(base, map[int]float64{3: 0}) })
	mustPanic(t, "negative factor", func() { NewDegraded(base, map[int]float64{3: -0.5}) })
	mustPanic(t, "factor > 1", func() { NewDegraded(base, map[int]float64{3: 1.5}) })
	// Boundary and interior values are fine.
	deg := NewDegraded(base, map[int]float64{3: 1.0, 4: 0.25})
	if bw := deg.LinkBandwidth(4); bw != 0.25*base.LinkBandwidth(4) {
		t.Fatalf("factor 0.25 not applied: %g", bw)
	}
	if bw := deg.LinkBandwidth(3); bw != base.LinkBandwidth(3) {
		t.Fatalf("factor 1.0 must be identity: %g", bw)
	}
}

func TestPrunedFatTreeUplinks(t *testing.T) {
	var sc Scratch
	// The default 16-uplink tree is the paper's 2:1 pruning; fewer uplinks
	// oversubscribe the trunk proportionally.
	full := NewPrunedFatTreeUplinks(64, 12.5e9, 32)
	if math.Abs(full.Bisection()-32*12.5e9) > 1e-3 {
		t.Fatalf("32-uplink bisection %g, want non-blocking 400 GB/s", full.Bisection())
	}
	if def := NewPrunedFatTree(64, 12.5e9); def.Bisection() != NewPrunedFatTreeUplinks(64, 12.5e9, 16).Bisection() {
		t.Fatalf("default tree must equal 16 uplinks: %g", def.Bisection())
	}
	quarter := NewPrunedFatTreeUplinks(64, 12.5e9, 4)
	if math.Abs(quarter.Bisection()-4*12.5e9) > 1e-3 {
		t.Fatalf("4-uplink bisection %g, want 50 GB/s", quarter.Bisection())
	}
	// The trunk paces cross-leaf phases in proportion.
	var cross []Flow
	for s := 0; s < 32; s++ {
		cross = append(cross, Flow{Src: s, Dst: 32 + s, Bytes: 1e9})
	}
	t16 := sc.PhaseTime(NewPrunedFatTreeUplinks(64, 12.5e9, 16), cross)
	t4 := sc.PhaseTime(quarter, cross)
	if ratio := t4 / t16; ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4x oversubscription should pace ≈4x: got %.2f", ratio)
	}
	mustPanic(t, "zero uplinks", func() { NewPrunedFatTreeUplinks(64, 12.5e9, 0) })
}

func TestScratchAccumulate(t *testing.T) {
	topo := NewPrunedFatTree(64, 12.5e9)
	flows := []Flow{{Src: 0, Dst: 63, Bytes: 1e9}} // up, trunk, down
	var s Scratch
	var ls LoadSet
	s.Accumulate(&ls)
	one := s.PhaseTime(topo, flows)
	links := append([]int(nil), ls.Links()...)
	if len(links) != 3 {
		t.Fatalf("cross-leaf flow must touch 3 links, got %v", links)
	}
	ov := topo.CopyOverhead()
	for _, l := range links {
		if got := ls.Load(l); math.Abs(got-1e9*ov) > 1 {
			t.Fatalf("link %d load %g, want %g", l, got, 1e9*ov)
		}
	}
	// PhaseTimeN scales both the returned time and the accumulated loads.
	ls.Reset()
	n := s.PhaseTimeN(topo, flows, 5)
	if math.Abs(n-5*one) > 1e-15 {
		t.Fatalf("PhaseTimeN time %g, want %g", n, 5*one)
	}
	for _, l := range ls.Links() {
		if got := ls.Load(l); math.Abs(got-5e9*ov) > 1 {
			t.Fatalf("PhaseTimeN link %d load %g, want %g", l, got, 5e9*ov)
		}
	}
	// Detach: further phases accumulate nowhere.
	s.Accumulate(nil)
	before := ls.Load(links[0])
	s.PhaseTime(topo, flows)
	if ls.Load(links[0]) != before {
		t.Fatal("detached accumulator must not collect loads")
	}
}
