// Tests for the tiered embedding parameter store wired through the
// distributed trainer: functional loss parity vs the in-RAM path at every
// strategy × backend combination, monotone timing in the cache budget and
// skew, and the zero-allocation convention for the tiered timing schedule.
package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/embstore"
	"repro/internal/testenv"
)

// TestEmbStoreLossParity: routing the embedding forward and SGD write-back
// through the tiered store must not move a single bit of the functional
// math — at an eviction-heavy budget and at an everything-resident budget,
// for every strategy × backend combination, the mean shard loss matches the
// single-socket trainer at 1e-6 and the trained owned tables are
// bit-identical to the untiered distributed run.
func TestEmbStoreLossParity(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters = 64, 3
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)
	rowBytes := 4*cfg.EmbDim + embstore.RowOverheadBytes

	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	for _, v := range Variants {
		for _, ranks := range []int{2, 4} {
			base := distTestConfig(cfg, ranks, globalN, iters, v, true)
			base.Pools = pools
			base.Workspaces = wss
			untiered := mustRun(base)
			for _, budget := range []int{8 * rowBytes, 1 << 20} {
				dc := base
				dc.EmbCacheBytes = budget
				dc.ColdTierBW = DefaultColdTierBW
				res := mustRun(dc)
				for it := 0; it < iters; it++ {
					var mean float64
					for rk := 0; rk < ranks; rk++ {
						if res.Losses[rk][it] != untiered.Losses[rk][it] {
							t.Errorf("%s R=%d budget=%d rank %d iter %d: tiered loss %v != untiered %v",
								v.Name(), ranks, budget, rk, it, res.Losses[rk][it], untiered.Losses[rk][it])
						}
						mean += res.Losses[rk][it]
					}
					mean /= float64(ranks)
					if d := math.Abs(mean - ref[it]); d > 1e-6 {
						t.Errorf("%s R=%d budget=%d iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)",
							v.Name(), ranks, budget, it, mean, ref[it], d)
					}
				}
				for rk := 0; rk < ranks; rk++ {
					for tb := 0; tb < cfg.Tables; tb++ {
						if TableOwner(tb, ranks) != rk {
							continue
						}
						a, b := res.Models[rk].Tables[tb].W, untiered.Models[rk].Tables[tb].W
						for i := range a {
							if a[i] != b[i] {
								t.Fatalf("%s R=%d budget=%d: table %d weight %d diverges: %v vs %v",
									v.Name(), ranks, budget, tb, i, a[i], b[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestEmbStoreLossParityDefaultSchedule repeats the parity check under the
// bucketed+overlapped default schedule (the store's flush points interleave
// with deferred waits there).
func TestEmbStoreLossParityDefaultSchedule(t *testing.T) {
	cfg := tinyConfig()
	const globalN, iters, ranks = 64, 3, 4
	_, ref := trainSingle(cfg, globalN, iters, 17, 0.5)
	dc := distTestConfig(cfg, ranks, globalN, iters, Variant{Alltoall, cluster.CCLBackend}, true)
	dc.Sync = false
	dc.BucketBytes = 0
	dc.EmbCacheBytes = 8 * (4*cfg.EmbDim + embstore.RowOverheadBytes)
	dc.ColdTierBW = DefaultColdTierBW
	res := mustRun(dc)
	for it := 0; it < iters; it++ {
		var mean float64
		for rk := 0; rk < ranks; rk++ {
			mean += res.Losses[rk][it]
		}
		mean /= float64(ranks)
		if d := math.Abs(mean - ref[it]); d > 1e-6 {
			t.Errorf("default schedule iter %d: loss %v vs single-socket %v (|Δ|=%g > 1e-6)", it, mean, ref[it], d)
		}
	}
}

// TestEmbStoreTimingMonotone pins the shape of the cost model the figure
// sweeps: a bigger hot budget strictly beats an all-cold-tier budget on
// virtual time, budgets never make iterations slower as they grow, hotter
// skew never makes them slower at a fixed budget, and the tiered run always
// carries the "coldtier"/"coldtier-wb" charges the untiered one lacks.
func TestEmbStoreTimingMonotone(t *testing.T) {
	run := func(budget int, skew float64) *DistResult {
		dc := distTestConfig(Small, 4, Small.GlobalMB, 2, Variant{Alltoall, cluster.CCLBackend}, false)
		dc.EmbCacheBytes = budget
		if budget > 0 {
			dc.ColdTierBW = DefaultColdTierBW
			dc.EmbSkew = skew
		}
		return mustRun(dc)
	}
	inRAM := run(0, 0)
	budgets := []int{4 << 10, 16 << 20, 64 << 20, 1 << 30}
	var prev float64
	for i, b := range budgets {
		res := run(b, 1.05)
		if res.PrepPerIter["coldtier"] <= 0 {
			t.Errorf("budget=%d: no coldtier fetch charged", b)
		}
		if res.BusyPerIter["coldtier-wb"] <= 0 {
			t.Errorf("budget=%d: no coldtier write-back charged", b)
		}
		if res.IterSeconds <= inRAM.IterSeconds {
			t.Errorf("budget=%d: tiered %v s/iter not slower than in-RAM %v", b, res.IterSeconds, inRAM.IterSeconds)
		}
		if i > 0 && res.IterSeconds > prev {
			t.Errorf("budget=%d: %v s/iter slower than smaller budget's %v", b, res.IterSeconds, prev)
		}
		prev = res.IterSeconds
	}
	if hot, cold := run(1<<30, 1.05), run(4<<10, 1.05); hot.IterSeconds >= cold.IterSeconds {
		t.Errorf("hot budget %v s/iter does not beat all-cold %v", hot.IterSeconds, cold.IterSeconds)
	}
	prev = math.Inf(1)
	for _, skew := range []float64{0.8, 1.05, 1.2} {
		res := run(64<<20, skew)
		if res.IterSeconds > prev {
			t.Errorf("skew=%v: %v s/iter slower than lower skew's %v", skew, res.IterSeconds, prev)
		}
		prev = res.IterSeconds
	}
}

// TestDistributedStepZeroAllocsEmbStore extends the repo's allocation
// convention to the tiered timing schedule: the per-iteration coldtier
// fetch, the background write-back wait/Async pair, and the analytic
// hit-rate scalars must add no steady-state allocations under either
// pipeline schedule.
func TestDistributedStepZeroAllocsEmbStore(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	v := Variant{Strategy: Alltoall, Backend: cluster.CCLBackend}
	for _, overlap := range []bool{false, true} {
		pools := cluster.NewPools()
		wss := NewDistWorkspaces()
		const ranks = 4
		run := func(iters int) func() {
			dc := distTestConfig(Small, ranks, Small.GlobalMB, iters, v, false)
			dc.Pools = pools
			dc.Workspaces = wss
			dc.Sync = !overlap
			dc.BucketBytes = FlatBuckets
			dc.EmbCacheBytes = 64 << 20
			dc.ColdTierBW = DefaultColdTierBW
			return func() { mustRun(dc) }
		}
		const short, long = 2, 12
		run(long)() // warmup: sizes workspaces, fills slot/sudog pools
		aShort := testing.AllocsPerRun(5, run(short))
		aLong := testing.AllocsPerRun(5, run(long))
		if got := (aLong - aShort) / float64(long-short); got != 0 {
			t.Errorf("overlap=%v embstore: %v allocs per steady-state iteration, want 0", overlap, got)
		}
		pools.Close()
	}
}
