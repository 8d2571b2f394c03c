package comm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// runCommContention is runComm with the contention knob and channel count
// under test control.
func runCommContention(t testing.TB, ranks int, contention bool, body func(c *Comm, l *ledger)) []ledger {
	t.Helper()
	return runTwice(t, cluster.Config{
		Ranks: ranks, Topo: fabric.NewPrunedFatTree(ranks, 12.5e9), Socket: perfmodel.CLX8280,
		Backend: cluster.CCLBackend, CallOverhead: 1e-9,
		Contention: contention,
	}, body)
}

// TestConcurrentAllreducesShareTrunk is the tentpole's end-to-end check at
// the comm layer: two 64 MiB allreduces issued concurrently on CCL channels
// 0 and 1 over the 64-socket pruned fat-tree cross the same 2:1 trunk.
// With contention off each is priced in isolation (the old, wrong optimism:
// both finish in one isolated duration); with contention on each op's busy
// time is ≥ its isolated time and the pair's combined finish stays ≤ the
// serialized sum.
func TestConcurrentAllreducesShareTrunk(t *testing.T) {
	const bytes = 64 << 20
	run := func(cont bool) (iso, busy1, busy2 float64) {
		stats := runCommContention(t, 64, cont, func(c *Comm, l *ledger) {
			if c.R.ID == 0 { // one writer: 64 ranks storing iso is a data race
				iso = c.AllreduceTime(bytes)
			}
			h1 := l.issued("ar0", c.AllreduceSegs("ar0", 0, [][]float32{make([]float32, 1)}, false, bytes, RingRSAG))
			h2 := l.issued("ar1", c.AllreduceSegs("ar1", 1, [][]float32{make([]float32, 1)}, false, bytes, RingRSAG))
			l.wait(c.R, "ar0", h1)
			l.wait(c.R, "ar1", h2)
		})
		return iso, stats[0].Busy["ar0"], stats[0].Busy["ar1"]
	}

	iso, off1, off2 := run(false)
	if off1 != iso || off2 != iso {
		t.Fatalf("contention off must price in isolation: iso=%g got %g, %g", iso, off1, off2)
	}
	_, on1, on2 := run(true)
	if on1 < iso || on2 < iso {
		t.Fatalf("each concurrent op must take ≥ isolated %g: got %g, %g", iso, on1, on2)
	}
	if on2 <= iso {
		t.Fatal("second op must actually pay for the shared trunk")
	}
	// Combined finish (both start together, so the later busy time bounds
	// it) never exceeds running the two back to back.
	later := on1
	if on2 > later {
		later = on2
	}
	if later > 2*iso+1e-9 {
		t.Fatalf("combined finish %g exceeds serialized sum %g", later, 2*iso)
	}
}

// TestContentionOffBitIdentical: the knob off must leave every modeled
// duration exactly as it was — the charge bracket is a no-op, not a
// near-no-op.
func TestContentionOffBitIdentical(t *testing.T) {
	const bytes = 8 << 20
	collect := func(cont bool) map[string]float64 {
		var out map[string]float64
		stats := runCommContention(t, 16, cont, func(c *Comm, l *ledger) {
			buf := make([]float32, 1)
			l.await(c.R, "ar", c.AllreduceCost("ar", buf, false, bytes))
			send := make([]float32, 16)
			recv := make([]float32, 16)
			l.await(c.R, "a2a", c.AlltoallCost("a2a", send, recv, 1, bytes/16))
			l.await(c.R, "auto", c.AllreduceSegs("auto", 0, [][]float32{buf}, false, bytes, AllreduceAuto))
		})
		out = stats[0].Busy
		return out
	}
	off, ref := collect(false), collect(false)
	for k, v := range ref {
		if off[k] != v {
			t.Fatalf("non-deterministic baseline for %s", k)
		}
	}
	// Serialized ops (each waited before the next) with contention ON also
	// match exactly: nothing overlaps, so nothing is charged sharing.
	on := collect(true)
	for k, v := range off {
		if on[k] != v {
			t.Fatalf("serialized op %s changed under contention: off=%g on=%g", k, v, on[k])
		}
	}
}

// TestAutoAllreduceContentionChargesWinnerOnly: the Auto policy probes every
// candidate algorithm; only the winner's flows may land in the contention
// epoch. If losers leaked, a subsequent overlapping op would be charged for
// phantom traffic.
func TestAutoAllreduceContentionChargesWinnerOnly(t *testing.T) {
	const bytes = 64 << 20
	run := func(algo AllreduceAlgo) (second float64) {
		stats := runCommContention(t, 64, true, func(c *Comm, l *ledger) {
			h1 := l.issued("first", c.AllreduceSegs("first", 0, [][]float32{make([]float32, 1)}, false, bytes, algo))
			h2 := l.issued("second", c.AllreduceSegs("second", 1, [][]float32{make([]float32, 1)}, false, bytes, RingRSAG))
			l.wait(c.R, "first", h1)
			l.wait(c.R, "second", h2)
		})
		return stats[0].Busy["second"]
	}
	// At 64 MiB the auto policy resolves to a concrete algorithm; the
	// second op must be charged exactly as if that algorithm had been
	// requested directly.
	// Only rank 0 publishes its Comm: every rank writing the shared
	// variable is a data race (cluster.Run's join is the read barrier,
	// but the 64 writers still race each other).
	var c0 *Comm
	runCommContention(t, 64, false, func(c *Comm, l *ledger) {
		if c.R.ID == 0 {
			c0 = c
		}
	})
	best, _ := c0.BestAllreduceAlgo(bytes)
	if got, want := run(AllreduceAuto), run(best); got != want {
		t.Fatalf("auto leaked probe flows into the epoch: second=%g, want %g (winner %v)", got, want, best)
	}
}
