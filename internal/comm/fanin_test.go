package comm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/testenv"
)

// TestFanInMatchesFlowModel checks the isolated gather time is exactly the
// fabric phase time of the equivalent flow list — FanIn adds placement and
// reuse, not a new cost model.
func TestFanInMatchesFlowModel(t *testing.T) {
	topo := fabric.NewPrunedFatTree(8, 12.5e9)
	f := &FanIn{Topo: topo}
	perSrc := []float64{1 << 20, 0, 2 << 20, 0, 4 << 20, 0, 0, 1 << 20}
	got := f.Time(3, perSrc)
	var flows []fabric.Flow
	for src, b := range perSrc {
		if src != 3 && b > 0 {
			flows = append(flows, fabric.Flow{Src: src, Dst: 3, Bytes: b})
		}
	}
	want := fabric.PhaseTime(topo, flows)
	if got != want {
		t.Fatalf("FanIn.Time = %v, want flow-model %v", got, want)
	}
	// Self and zero entries contribute nothing.
	if d := f.Time(2, []float64{0, 0, 5 << 20, 0, 0, 0, 0, 0}); d != 0 {
		t.Fatalf("self-only gather priced %v, want 0", d)
	}
	if d := f.Time(0, make([]float64, 8)); d != 0 {
		t.Fatalf("empty gather priced %v, want 0", d)
	}
	// More sources through the shared downlink cannot be faster.
	one := f.Time(0, []float64{0, 8 << 20, 0, 0, 0, 0, 0, 0})
	all := f.Time(0, []float64{0, 8 << 20, 8 << 20, 8 << 20, 0, 0, 0, 0})
	if all < one {
		t.Fatalf("gather from 3 sources (%v) faster than from 1 (%v)", all, one)
	}
}

// TestFanInContended checks the contended variant: with contention off (or
// a nil engine) it matches the isolated time; with contention on, a gather
// overlapping an identical in-flight gather on shared links takes longer,
// and the epoch drains — a later, non-overlapping gather is isolated again.
func TestFanInContended(t *testing.T) {
	topo := fabric.NewPrunedFatTree(8, 12.5e9)
	perSrc := []float64{0, 0, 0, 0, 32 << 20, 32 << 20, 32 << 20, 32 << 20}
	f := &FanIn{Topo: topo}
	iso := f.Time(0, perSrc)

	off := &FanIn{Topo: topo}
	if d := off.TimeOn(nil, 0, perSrc, 0); d != iso {
		t.Fatalf("nil engine: %v, want isolated %v", d, iso)
	}
	eng := cluster.NewEngine(cluster.Config{Ranks: 8, Topo: topo})
	if d := off.TimeOn(eng, 0, perSrc, 0); d != iso {
		t.Fatalf("contention off: %v, want isolated %v", d, iso)
	}

	// ChargeContended scales to post-slowdown time and back, so allow one
	// ulp-scale wobble where exact equality crossed that round trip.
	close := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 1e-12*(1+b)
	}
	on := &FanIn{Topo: topo}
	engOn := cluster.NewEngine(cluster.Config{Ranks: 8, Topo: topo, Contention: true})
	first := on.TimeOn(engOn, 0, perSrc, 0)
	if !close(first, iso) {
		t.Fatalf("first flight on an empty epoch: %v, want isolated %v", first, iso)
	}
	// Destination 1 shares the sources' uplinks and the trunk with the
	// in-flight gather to 0.
	overlapped := on.TimeOn(engOn, 1, perSrc, 0)
	if overlapped <= iso {
		t.Fatalf("overlapping gather %v not slower than isolated %v", overlapped, iso)
	}
	// Far in the future the epoch has drained.
	later := on.TimeOn(engOn, 1, perSrc, 1e9)
	if !close(later, iso) {
		t.Fatalf("post-drain gather %v, want isolated %v", later, iso)
	}
}

// TestFanInZeroAllocs pins the steady-state allocation discipline for both
// variants (the serving event loop prices one fan-in per dispatched batch).
func TestFanInZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	topo := fabric.NewPrunedFatTree(8, 12.5e9)
	perSrc := []float64{1 << 20, 2 << 20, 0, 3 << 20, 0, 1 << 20, 0, 2 << 20}
	f := &FanIn{Topo: topo}
	eng := cluster.NewEngine(cluster.Config{Ranks: 8, Topo: topo, Contention: true})
	var start float64
	probe := func() {
		f.Time(2, perSrc)
		f.TimeOn(eng, 1, perSrc, start)
		start += 1e-3
	}
	probe()
	probe()
	if allocs := testing.AllocsPerRun(20, probe); allocs != 0 {
		t.Fatalf("steady-state fan-in: %v allocs, want 0", allocs)
	}
}
