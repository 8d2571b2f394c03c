package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// TestChargeContendedProperties drives ChargeContended with random flow
// sets in causal (issue-order) start time order — the only order leader
// context ever produces — and checks the documented bounds for every
// operation:
//
//  1. dur ≥ iso: sharing never makes an operation faster than isolation;
//  2. dur ≤ iso + Σ iso of the flights in the epoch at its start: each
//     overlapping operation contributes at most its own isolated duration,
//     so concurrent collectives never finish later than serialized;
//  3. an operation that overlaps nothing is charged exactly iso.
func TestChargeContendedProperties(t *testing.T) {
	topo := fabric.NewPrunedFatTree(64, 12.5e9)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := &Engine{Cfg: testCfg(64, CCLBackend).WithDefaults()}
		var sc fabric.Scratch
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
			var loads fabric.LoadSet
			sc.Accumulate(&loads)
			iso := sc.PhaseTimeN(topo, flows, float64(1+rng.Intn(8)))
			sc.Accumulate(nil)

			dur := e.ChargeContended(topo, &loads, start, iso)
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
	e := &Engine{Cfg: testCfg(64, CCLBackend).WithDefaults()}
	var sc fabric.Scratch
	charge := func(flows []fabric.Flow, start float64) float64 {
		var loads fabric.LoadSet
		sc.Accumulate(&loads)
		iso := sc.PhaseTime(topo, flows)
		sc.Accumulate(nil)
		return e.ChargeContended(topo, &loads, start, iso)
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
	iso := sc.PhaseTime(topo, other)
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
	cfg := testCfg(64, CCLBackend)
	cfg.CommCores = 2 // commSlowdown = 2
	e := &Engine{Cfg: cfg.WithDefaults()}
	var sc fabric.Scratch
	cross := []fabric.Flow{{Src: 0, Dst: 32, Bytes: 1e9}}
	charge := func(start float64) float64 {
		var loads fabric.LoadSet
		sc.Accumulate(&loads)
		iso := sc.PhaseTime(topo, cross)
		sc.Accumulate(nil)
		return e.ChargeContended(topo, &loads, start, iso)
	}
	d1 := charge(0)
	d2 := charge(0)
	drain := 1e9 * topo.CopyOverhead() / topo.LinkBandwidth(0)
	if math.Abs(d2-(d1+drain)) > 1e-9 {
		t.Fatalf("slowdown must not distort sharing: d1=%g d2=%g want %g", d1, d2, d1+drain)
	}
}

// TestHandleChannelResolution pins the Handle.Channel contract: resolved
// CCL channel (hint mod CCLChannels), 0 under MPI's single channel, -1 for
// the Async background stream.
func TestHandleChannelResolution(t *testing.T) {
	cfg := testCfg(2, CCLBackend)
	runTwice(t, cfg, func(r *Rank, _ *ledger) {
		x := &sumXchg{dur: 0.01}
		if h := r.CollectiveOn("op", 2, x, x, sumLead); h.Channel != 2 {
			t.Errorf("pinned channel 2 resolved to %d", h.Channel)
		}
		y := &sumXchg{dur: 0.01}
		if h := r.CollectiveOn("op", 6, y, y, sumLead); h.Channel != 2 {
			t.Errorf("channel hint 6 mod 4 should resolve to 2, got %d", h.Channel)
		}
		z := &sumXchg{dur: 0.01}
		if h := r.Collective("op", z, z, sumLead); h.Channel < 0 || h.Channel >= 4 {
			t.Errorf("label-hash channel %d outside [0,4)", h.Channel)
		}
		if h := r.Async(0.01); h.Channel != -1 {
			t.Errorf("async channel %d, want -1", h.Channel)
		}
	})
	runTwice(t, testCfg(2, MPIBackend), func(r *Rank, _ *ledger) {
		x := &sumXchg{dur: 0.01}
		if h := r.CollectiveOn("op", 3, x, x, sumLead); h.Channel != 0 {
			t.Errorf("MPI drops hints and has one channel; resolved to %d", h.Channel)
		}
	})
}

// TestContentionOffIdenticalPricing: with the knob off the engine never
// consults the epoch — a Run with Contention=false must produce exactly
// the same virtual times as one that never heard of the knob (the
// zero-value Config), for overlapped multi-channel traffic.
func TestContentionOffIdenticalPricing(t *testing.T) {
	run := func(cont bool) []ledger {
		cfg := testCfg(2, CCLBackend)
		cfg.Contention = cont
		return runTwice(t, cfg, func(r *Rank, l *ledger) {
			x1 := &sumXchg{dur: 0.4}
			h1 := l.issued("a", r.CollectiveOn("a", 0, x1, x1, sumLead))
			x2 := &sumXchg{dur: 0.3}
			h2 := l.issued("b", r.CollectiveOn("b", 1, x2, x2, sumLead))
			l.wait(r, "a", h1)
			l.wait(r, "b", h2)
		})
	}
	off, on := run(false), run(true)
	for i := range off {
		// The raw sumLead collective registers no loads, so even with the
		// knob on nothing contends — but the point here is the off path.
		if off[i].totalWait() != on[i].totalWait() {
			t.Fatalf("rank %d: off %g vs on %g", i, off[i].totalWait(), on[i].totalWait())
		}
	}
}
