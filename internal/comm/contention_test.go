package comm

import (
	"math"
	"math/rand"
	"reflect"
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
				iso = c.AllreduceTimeAlgo(RingRSAG, bytes)
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

// footprint prices flows as n phases on a fresh scratch and returns the
// isolated duration with the per-link loads it collected.
func footprint(topo fabric.Topology, flows []fabric.Flow, n float64) (float64, *fabric.LoadSet) {
	var sc fabric.Scratch
	loads := new(fabric.LoadSet)
	sc.Accumulate(loads)
	return sc.PhaseTimeN(topo, flows, n), loads
}

// TestChargeContendedProperties drives the contention epoch with random
// flow sets in causal (issue-order) start time order — the only order
// leaders ever produce — and checks the documented bounds for every
// operation:
//
//  1. dur ≥ iso: sharing never makes an operation faster than isolation;
//  2. dur ≤ iso + Σ iso of the flights in the epoch at its start: each
//     overlapping operation contributes at most its own isolated duration,
//     so concurrent collectives never finish later than serialized;
//  3. an operation that overlaps nothing is charged exactly iso.
func TestChargeContendedProperties(t *testing.T) {
	topo := fabric.NewPrunedFatTree(64, 12.5e9)
	slow := cluster.Config{Backend: cluster.CCLBackend}.WithDefaults().CommSlowdown()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := NewPricer(topo, 64)
		// Registered windows mirrored by the test for the overlap bound.
		type win struct{ start, finish, iso float64 }
		var wins []win
		start := 0.0
		for op := 0; op < 40; op++ {
			// Random flow set: a handful of flows between random sockets,
			// charged over a random phase multiplicity like real collectives.
			flows := make([]fabric.Flow, 1+rng.Intn(6))
			for i := range flows {
				a, b := rng.Intn(64), rng.Intn(64)
				if a == b {
					b = (b + 1) % 64
				}
				flows[i] = fabric.Flow{Src: a, Dst: b, Bytes: float64(1+rng.Intn(64)) * 1e6}
			}
			iso, loads := footprint(topo, flows, float64(1+rng.Intn(8)))

			dur := p.contend(slow, loads, start, iso)
			if dur < iso-1e-12 {
				t.Fatalf("trial %d op %d: dur %g < iso %g", trial, op, dur, iso)
			}
			var bound float64
			overlapped := false
			for _, w := range wins {
				if w.finish > start {
					bound += w.iso
					overlapped = true
				}
			}
			if dur > iso+bound+1e-9 {
				t.Fatalf("trial %d op %d: dur %g exceeds serialized bound iso %g + %g",
					trial, op, dur, iso, bound)
			}
			if !overlapped && dur != iso {
				t.Fatalf("trial %d op %d: no overlap but dur %g != iso %g", trial, op, dur, iso)
			}
			wins = append(wins, win{start, start + dur, iso})
			// Starts advance non-decreasingly (issue order); sometimes jump
			// past everything to exercise epoch pruning.
			if rng.Intn(8) == 0 {
				start += dur * 3
			} else {
				start += dur * rng.Float64() * 0.5
			}
		}
	}
}

// TestChargeContendedSharesBottleneck pins the exact two-op case: two
// identical operations over the same bottleneck link, second issued at the
// first's start, must pay the first's full byte drain on top of its own
// isolated time (the fair-share 2x, minus the latency term which is not
// paid twice) — while a disjoint-link operation pays nothing.
func TestChargeContendedSharesBottleneck(t *testing.T) {
	topo := fabric.NewPrunedFatTree(64, 12.5e9)
	p := NewPricer(topo, 64)
	charge := func(flows []fabric.Flow, start float64) float64 {
		iso, loads := footprint(topo, flows, 1)
		return p.contend(1, loads, start, iso)
	}
	cross := []fabric.Flow{{Src: 0, Dst: 32, Bytes: 1e9}} // trunk crossing
	d1 := charge(cross, 0)
	d2 := charge(cross, 0)
	drain := 1e9 * topo.CopyOverhead() / topo.LinkBandwidth(0) // uplink is the bottleneck
	if math.Abs(d2-(d1+drain)) > 1e-9 {
		t.Fatalf("fully overlapped identical op must pay the first's drain: d1=%g d2=%g want %g", d1, d2, d1+drain)
	}
	// An op on disjoint links (intra-leaf, other leaf) is unaffected.
	other := []fabric.Flow{{Src: 40, Dst: 41, Bytes: 1e9}}
	iso, _ := footprint(topo, other, 1)
	if d := charge(other, 0); d != iso {
		t.Fatalf("disjoint links must charge iso %g, got %g", iso, d)
	}
	// After both drain, a third op is back to isolated pricing.
	if d := charge(cross, d1+d2+1); d != d1 {
		t.Fatalf("post-drain op must charge iso %g, got %g", d1, d)
	}
}

// TestChargeContendedScaledTime checks commSlowdown consistency: the
// returned duration is in pre-slowdown units (the leader's contract) while
// the registered window lives in scaled time, so a second identical op
// still sees exactly one isolated duration of residual.
func TestChargeContendedScaledTime(t *testing.T) {
	topo := fabric.NewPrunedFatTree(64, 12.5e9)
	slow := cluster.Config{Backend: cluster.CCLBackend, CommCores: 2}.CommSlowdown() // 2
	p := NewPricer(topo, 64)
	cross := []fabric.Flow{{Src: 0, Dst: 32, Bytes: 1e9}}
	charge := func(start float64) float64 {
		iso, loads := footprint(topo, cross, 1)
		return p.contend(slow, loads, start, iso)
	}
	d1 := charge(0)
	d2 := charge(0)
	drain := 1e9 * topo.CopyOverhead() / topo.LinkBandwidth(0)
	if math.Abs(d2-(d1+drain)) > 1e-9 {
		t.Fatalf("slowdown must not distort sharing: d1=%g d2=%g want %g", d1, d2, d1+drain)
	}
}

// TestEnginesAgreeUnderContention: the same SPMD program, run as one Comm
// per rank under cluster.Run and step by step for all ranks at once
// through a ForAll communicator, charges identical times with contention
// on. It is the case where leader order matters: every leader reads and
// mutates the job's contention epoch, and skewed ranks keep three
// overlapping allreduces in flight on distinct channels over the same
// adapter links. Both backends, each collective waited where it is issued
// (blocking) or after all three.
func TestEnginesAgreeUnderContention(t *testing.T) {
	const ranks, iters = 8, 4
	topo := fabric.NewPrunedFatTree(64, 12.5e9)
	labels := [3]string{"op0", "op1", "op2"}
	// program issues the iterations through c, booking every rank c stands
	// for — rs — in its ledger ls.
	program := func(c *Comm, rs []*cluster.Rank, ls []*ledger, blocking bool) {
		compute := func(f func(rank int) float64) {
			for i, r := range rs {
				ls[i].Compute += r.Compute(f(r.ID))
			}
		}
		for it := range iters {
			compute(func(rank int) float64 { return 1e-3 * float64(1+(rank*7+it)%5) })
			var hs [3]cluster.Handle
			for i, label := range labels {
				hs[i] = c.AllreduceSegs(label, i, nil, false, float64(1+i)*(64<<20), RingRSAG)
				for j, r := range rs {
					ls[j].issued(label, hs[i])
					if blocking {
						ls[j].wait(r, label, hs[i])
					}
				}
				compute(func(int) float64 { return 2e-3 })
			}
			for i, h := range hs {
				for j, r := range rs {
					ls[j].wait(r, labels[i], h)
				}
			}
		}
	}
	for _, backend := range []cluster.Backend{cluster.CCLBackend, cluster.MPIBackend} {
		for _, blocking := range []bool{false, true} {
			cfg := cluster.Config{Ranks: ranks, Topo: topo, Socket: perfmodel.CLX8280,
				Backend: backend, CallOverhead: 1e-9, Contention: true}
			run := func(cfg cluster.Config) []ledger {
				return runTwice(t, cfg, func(c *Comm, l *ledger) {
					program(c, []*cluster.Rank{c.R}, []*ledger{l}, blocking)
				})
			}
			want := run(cfg)

			rs, got := cluster.NewRanks(cfg), newLedgers(ranks)
			ls := make([]*ledger, ranks)
			for i := range ls {
				ls[i] = &got[i]
			}
			program(ForAll(rs, topo), rs, ls, blocking)
			for i, r := range rs {
				got[i].Now = r.Now()
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v blocking=%v: ForAll differs from the ranks' own Comms under Run:\n got %+v\nwant %+v",
					backend, blocking, got, want)
			}

			if backend == cluster.MPIBackend || blocking {
				continue // one operation in flight at a time: nothing to share
			}
			cfg.Contention = false
			if alone := run(cfg); want[0].Busy["op1"] <= alone[0].Busy["op1"] {
				t.Errorf("op1 never paid for sharing the trunk: busy %g contended, %g alone",
					want[0].Busy["op1"], alone[0].Busy["op1"])
			}
		}
	}
}
