package comm

import (
	"testing"

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

// TestFanInZeroAllocs pins the steady-state allocation discipline (the
// serving event loop prices one fan-in per dispatched batch).
func TestFanInZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	topo := fabric.NewPrunedFatTree(8, 12.5e9)
	perSrc := []float64{1 << 20, 2 << 20, 0, 3 << 20, 0, 1 << 20, 0, 2 << 20}
	f := &FanIn{Topo: topo}
	probe := func() { f.Time(2, perSrc) }
	probe()
	probe()
	if allocs := testing.AllocsPerRun(20, probe); allocs != 0 {
		t.Fatalf("steady-state fan-in: %v allocs, want 0", allocs)
	}
}
