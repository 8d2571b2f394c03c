package fabric

import (
	"math"
	"testing"
)

func TestTwistedHypercubeDegreeAndDiameter(t *testing.T) {
	h := NewTwistedHypercube(22e9)
	// Every socket must have exactly 3 one-hop neighbours (3 UPI links).
	for a := 0; a < 8; a++ {
		oneHop := 0
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			hops := h.Hops(a, b)
			if hops < 1 || hops > 2 {
				t.Fatalf("hops(%d,%d)=%d, diameter must be 2", a, b, hops)
			}
			if hops == 1 {
				oneHop++
			}
		}
		if oneHop != 3 {
			t.Fatalf("socket %d has %d one-hop neighbours, want 3", a, oneHop)
		}
	}
}

func TestTwistedHypercubeRouteValidity(t *testing.T) {
	h := NewTwistedHypercube(22e9)
	for a := 0; a < 8; a++ {
		if len(h.Route(a, a)) != 0 {
			t.Fatal("self route must be empty")
		}
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			r := h.Route(a, b)
			for _, link := range r {
				if link < 0 || link >= 12 {
					t.Fatalf("route(%d,%d) uses invalid link %d", a, b, link)
				}
			}
		}
	}
}

func TestTwistedHypercubeAggregateBandwidth(t *testing.T) {
	// 12 unique UPI links at ~22 GB/s ⇒ ~260 GB/s aggregate (§V-A).
	h := NewTwistedHypercube(22e9)
	links := map[int]bool{}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a != b && h.Hops(a, b) == 1 {
				links[h.Route(a, b)[0]] = true
			}
		}
	}
	if len(links) != 12 {
		t.Fatalf("expected 12 unique links, got %d", len(links))
	}
	agg := float64(len(links)) * h.LinkBandwidth(0)
	if agg < 250e9 || agg > 270e9 {
		t.Fatalf("aggregate UPI bandwidth %.0f GB/s, want ≈264", agg/1e9)
	}
}

func TestPhaseTimeSingleFlow(t *testing.T) {
	var sc Scratch
	h := NewTwistedHypercube(22e9)
	// 22 GB over a single direct link should take ~1 s.
	d := sc.PhaseTime(h, []Flow{{Src: 0, Dst: 1, Bytes: 22e9}})
	if math.Abs(d-1) > 0.01 {
		t.Fatalf("single-link phase time %g, want ≈1s", d)
	}
	// Same volume over a 2-hop pair costs the same per link (pipelined
	// model), so duration is similar but latency doubles.
	far := -1
	for b := 1; b < 8; b++ {
		if h.Hops(0, b) == 2 {
			far = b
			break
		}
	}
	d2 := sc.PhaseTime(h, []Flow{{Src: 0, Dst: far, Bytes: 22e9}})
	if d2 < d {
		t.Fatal("2-hop flow cannot be faster than 1-hop")
	}
}

func TestPhaseTimeContention(t *testing.T) {
	var sc Scratch
	h := NewTwistedHypercube(22e9)
	// Two flows sharing the same link take twice as long as one.
	one := sc.PhaseTime(h, []Flow{{Src: 0, Dst: 1, Bytes: 22e9}})
	two := sc.PhaseTime(h, []Flow{
		{Src: 0, Dst: 1, Bytes: 22e9},
		{Src: 0, Dst: 1, Bytes: 22e9},
	})
	if math.Abs(two-2*one)/one > 0.05 {
		t.Fatalf("contention not modeled: one=%g two=%g", one, two)
	}
}

func TestPhaseTimeEmptyAndSelfFlows(t *testing.T) {
	var sc Scratch
	h := NewTwistedHypercube(22e9)
	if sc.PhaseTime(h, nil) != 0 {
		t.Fatal("empty phase must cost 0")
	}
	if sc.PhaseTime(h, []Flow{{Src: 3, Dst: 3, Bytes: 1e9}}) != 0 {
		t.Fatal("self flow must cost 0")
	}
	if sc.PhaseTime(h, []Flow{{Src: 0, Dst: 1, Bytes: 0}}) != 0 {
		t.Fatal("zero-byte flow must cost 0")
	}
}

func TestFatTreeRoutes(t *testing.T) {
	f := NewPrunedFatTree(64, 12.5e9)
	// Same leaf: two host links, no trunk.
	r := f.Route(0, 31)
	if len(r) != 2 {
		t.Fatalf("intra-leaf route length %d, want 2", len(r))
	}
	for _, l := range r {
		if l == 64 {
			t.Fatal("intra-leaf route must not use trunk")
		}
	}
	// Cross leaf: host up, trunk, host down.
	r = f.Route(0, 63)
	if len(r) != 3 || r[1] < 128 {
		t.Fatalf("cross-leaf route %v, want host-trunk-host", r)
	}
	if len(f.Route(5, 5)) != 0 {
		t.Fatal("self route must be empty")
	}
}

func TestFatTreePruning(t *testing.T) {
	var sc Scratch
	f := NewPrunedFatTree(64, 12.5e9)
	// Bisection = trunk = 16 links ⇒ 200 GB/s (§V-B).
	if math.Abs(f.Bisection()-200e9) > 1e9 {
		t.Fatalf("bisection %.0f GB/s, want 200", f.Bisection()/1e9)
	}
	// All 32 sockets of leaf 0 sending cross-leaf at once must be limited by
	// the 2:1 pruned trunk, i.e. take about twice as long as the same
	// traffic spread within the leaf.
	var cross, intra []Flow
	for s := 0; s < 32; s++ {
		cross = append(cross, Flow{Src: s, Dst: 32 + s, Bytes: 1e9})
		intra = append(intra, Flow{Src: s, Dst: (s + 16) % 32, Bytes: 1e9})
	}
	tc := sc.PhaseTime(f, cross)
	ti := sc.PhaseTime(f, intra)
	ratio := tc / ti
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("trunk pruning ratio %.2f, want ≈2 (cross=%g intra=%g)", ratio, tc, ti)
	}
}

func TestFatTreeLatencyAndOverhead(t *testing.T) {
	f := NewPrunedFatTree(64, 12.5e9)
	if f.Latency(0, 1) != 1e-6 || f.Latency(0, 63) != 2e-6 {
		t.Fatal("latency model wrong")
	}
	if f.CopyOverhead() <= 1 {
		t.Fatal("NIC fabric must have copy overhead > 1 (§V-C)")
	}
	h := NewTwistedHypercube(22e9)
	if h.CopyOverhead() != 1 {
		t.Fatal("UPI non-temporal stores have no copy overhead")
	}
}

func TestFatTreeSmallConfigs(t *testing.T) {
	var sc Scratch
	for _, n := range []int{1, 2, 8, 26, 32} {
		f := NewPrunedFatTree(n, 12.5e9)
		if f.NumSockets() != n {
			t.Fatalf("NumSockets=%d want %d", f.NumSockets(), n)
		}
		if n > 1 {
			if d := sc.PhaseTime(f, []Flow{{Src: 0, Dst: n - 1, Bytes: 12.5e9}}); d <= 0 {
				t.Fatal("transfer must take time")
			}
		}
	}
	if !math.IsInf(NewPrunedFatTree(16, 12.5e9).Bisection(), 1) {
		t.Fatal("single-leaf system is non-blocking")
	}
}

func TestFatTreeBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64 sockets")
		}
	}()
	NewPrunedFatTree(65, 12.5e9)
}

func TestDegradedLinkBecomesBottleneck(t *testing.T) {
	var sc Scratch
	base := NewPrunedFatTree(8, 12.5e9)
	// Slow socket 3's uplink to 10% of nominal.
	deg := NewDegraded(base, map[int]float64{3: 0.1})
	flows := []Flow{{Src: 3, Dst: 5, Bytes: 1e9}}
	healthy := sc.PhaseTime(base, flows)
	broken := sc.PhaseTime(deg, flows)
	if broken < 9*healthy {
		t.Fatalf("degraded link not limiting: %.3g vs %.3g", broken, healthy)
	}
	// Traffic avoiding the bad link is unaffected.
	other := []Flow{{Src: 1, Dst: 2, Bytes: 1e9}}
	if sc.PhaseTime(deg, other) != sc.PhaseTime(base, other) {
		t.Fatal("unrelated traffic affected by degradation")
	}
	if deg.Name() == base.Name() {
		t.Fatal("degraded topology should be labeled")
	}
}

func TestDegradedDragsCollectives(t *testing.T) {
	var sc Scratch
	// A single slow UPI link must slow any alltoall phase that crosses it —
	// the all-links-used pairwise exchange always does on 8 sockets.
	base := NewTwistedHypercube(22e9)
	deg := NewDegraded(base, map[int]float64{0: 0.25})
	var flows []Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, Flow{Src: i, Dst: i ^ 1, Bytes: 1e8})
	}
	if sc.PhaseTime(deg, flows) <= sc.PhaseTime(base, flows) {
		t.Fatal("alltoall phase must slow through a degraded link")
	}
}
