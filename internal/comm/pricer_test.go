package comm

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// TestMemoisedPriceIsTheRecomputedPrice pins the memo's contract: a price
// served from the memo — first sight, repeat, and after unrelated prices have
// reused the scratch — is bit for bit what a pricer that recomputes every
// time returns, for every allreduce algorithm (and the Auto policy) at the
// paper's three gradient volumes and three scales, and for alltoall, scatter
// and gather at several roots.
func TestMemoisedPriceIsTheRecomputedPrice(t *testing.T) {
	vols := []float64{4e3, 9.5e6, 1047e6}
	for _, ranks := range []int{4, 16, 64} {
		topo := fabric.NewPrunedFatTree(ranks, 12.5e9)
		memo, fresh := NewPricer(topo, ranks), NewPricer(topo, ranks)
		fresh.memo = nil
		var ops []op
		for _, b := range vols {
			for _, a := range append([]AllreduceAlgo{AllreduceAuto}, AllreduceAlgos...) {
				ops = append(ops, op{kind: opAllreduce, algo: a, bytes: b})
			}
			ops = append(ops, op{kind: opAlltoall, bytes: b / float64(ranks)})
			for _, root := range []int{0, 1, ranks / 2, ranks - 1} {
				ops = append(ops, op{kind: opScatter, root: root, bytes: b}, op{kind: opGather, root: root, bytes: b})
			}
		}
		for pass := 0; pass < 3; pass++ {
			for _, o := range ops {
				got, want := memo.time(o), fresh.time(o)
				if math.Float64bits(got) != math.Float64bits(want) || want <= 0 {
					t.Fatalf("%dR pass %d %+v: memoised %v, recomputed %v", ranks, pass, o, got, want)
				}
			}
		}
		if len(memo.memo) != len(ops) {
			t.Errorf("%dR: %d memo entries for %d distinct operations", ranks, len(memo.memo), len(ops))
		}
		if len(fresh.memo) != 0 {
			t.Errorf("%dR: the recomputing pricer memoised %d entries", ranks, len(fresh.memo))
		}
		for _, b := range vols {
			ga, gt := memo.BestAllreduceAlgo(b)
			wa, wt := fresh.BestAllreduceAlgo(b)
			if ga != wa || gt != wt {
				t.Errorf("%dR %g B: memoised best %v (%v), recomputed %v (%v)", ranks, b, ga, gt, wa, wt)
			}
		}
	}
}

// TestContendedRunWithMemoEqualsWithout: under contention-aware charging the
// memo also serves the collective's per-link footprint. A schedule that keeps
// several collectives of repeating shapes in flight — so most charges are
// memo hits racing earlier flights — must come out exactly as when every
// collective is re-priced and its footprint re-collected.
func TestContendedRunWithMemoEqualsWithout(t *testing.T) {
	const ranks, bytes = 64, 64 << 20
	run := func(memoised bool) []ledger {
		return runCommContention(t, ranks, true, func(c *Comm, l *ledger) {
			if !memoised {
				// Every rank, before it joins the first collective — so before
				// the first leader prices anything.
				c.Pricer.mu.Lock()
				c.Pricer.memo = nil
				c.Pricer.mu.Unlock()
			}
			for it := 0; it < 3; it++ {
				l.Compute += c.R.Compute(1e-3 * float64(1+c.Rank()%3))
				hs := []cluster.Handle{
					l.issued("ar0", c.AllreduceSegs("ar0", 0, nil, false, bytes, AllreduceAuto)),
					l.issued("ar1", c.AllreduceSegs("ar1", 1, nil, false, bytes/4, Hierarchical)),
					l.issued("a2a", c.AlltoallSegs("a2a", 2, nil, nil, bytes/ranks)),
					l.issued("ar3", c.AllreduceSegs("ar3", 3, nil, false, bytes, RingRSAG)),
					l.issued("sc", c.ScatterSegs("sc", 0, it, nil, nil, bytes/ranks)),
				}
				for i, label := range []string{"ar0", "ar1", "a2a", "ar3", "sc"} {
					l.wait(c.R, label, hs[i])
				}
			}
		})
	}
	with, without := run(true), run(false)
	for r := range with {
		for label, want := range without[r].Busy {
			if got := with[r].Busy[label]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rank %d %q: busy %v with the memo, %v without", r, label, got, want)
			}
		}
		if with[r].totalWait() != without[r].totalWait() {
			t.Fatalf("rank %d: total wait %v with the memo, %v without", r, with[r].totalWait(), without[r].totalWait())
		}
	}
	// The schedule really contends: the ring on channel 3 shares the trunk
	// with three earlier flights and must cost more than in isolation.
	iso := NewPricer(fabric.NewPrunedFatTree(ranks, 12.5e9), ranks).AllreduceTimeAlgo(RingRSAG, bytes)
	if busy := with[0].Busy["ar3"]; busy <= 3*iso {
		t.Fatalf("nothing contended: ar3 busy %v over 3 iterations, ring alone %v each", busy, iso)
	}
}
