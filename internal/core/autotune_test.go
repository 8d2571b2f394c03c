package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/testenv"
)

// autotuneBase builds the timing-mode shape the autotuner tests probe:
// paper config, OPA fat-tree, CCL Alltoall, default schedule, shared
// pools/workspaces.
func autotuneBase(cfg Config, ranks, globalN int, pools *cluster.Pools, wss *DistWorkspaces) DistConfig {
	dc := at(cfg, ranks, defaults, nIters(1))
	dc.GlobalN, dc.Pools, dc.Workspaces = globalN-globalN%ranks, pools, wss
	return dc
}

// measure runs the config for iters timing-mode iterations.
func measure(dc DistConfig, iters int) float64 {
	dc.Iters = iters
	return mustRun(dc).IterSeconds
}

// TestAutotuneNeverWorseThanIncumbent is the tuner's contract: whatever
// schedule dc starts from — the bucketed+overlapped default, the paper's
// flat-sync pipeline, or a deliberately bad pick — the tuned config's
// modeled iteration time at the final probe budget is never above the
// incumbent's.
func TestAutotuneNeverWorseThanIncumbent(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	incumbents := []struct {
		name string
		set  func(*DistConfig)
	}{
		{"default", func(*DistConfig) {}},
		{"flat-sync", flatSync},
		// 1 MiB buckets are off the search ladder: this exercises the appended incumbent.
		{"sync-tree-1MiB", all(flatSync, bucket(1<<20), algo(comm.BinaryTree))},
	}
	const final = 4
	for _, inc := range incumbents {
		dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
		inc.set(&dc)
		tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: final, MaxCandidates: 12})
		if rep.TunedSeconds > rep.BaselineSeconds {
			t.Errorf("%s: report claims tuned (%g) worse than incumbent (%g)",
				inc.name, rep.TunedSeconds, rep.BaselineSeconds)
		}
		got, want := measure(tuned, final), measure(dc, final)
		if got > want+1e-12 {
			t.Errorf("%s: tuned schedule %q measures %g s/iter, incumbent %g",
				inc.name, rep.Schedule, got, want)
		}
		if tuned.Iters != dc.Iters || tuned.Cfg.Name != dc.Cfg.Name {
			t.Errorf("%s: tuner must only touch schedule knobs", inc.name)
		}
	}
}

// TestAutotuneBeatsFlatSyncBaseline: from the paper's instrumented
// flat-sync schedule the tuner must find a strictly faster one (the
// overlapped schedules hide communication at every measured scale).
func TestAutotuneBeatsFlatSyncBaseline(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	dc := autotuneBase(Large, 16, Large.GlobalMB, pools, NewDistWorkspaces())
	dc.Sync = true
	dc.BucketBytes = FlatBuckets
	_, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: 3})
	if rep.Gain() <= 0 {
		t.Errorf("no gain over flat-sync at 16R: %+v", rep)
	}
}

// TestAutotuneBeatsDefaultAtHeadlineScale is the exposure the figure
// quotes: at the 64-rank strong-scaling headline, searching the full space
// strictly beats the hand-picked default (bucketed+overlapped 64 MiB ring)
// — the hierarchical two-level cost model wins on the pruned fat tree.
func TestAutotuneBeatsDefaultAtHeadlineScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space 64-rank search")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	dc := autotuneBase(Large, 64, Large.GlobalMB, pools, NewDistWorkspaces())
	tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: 3})
	if rep.Gain() <= 0 {
		t.Fatalf("tuner found nothing better than the default at 64R: %+v", rep)
	}
	const iters = 6
	got, def := measure(tuned, iters), measure(dc, iters)
	if got >= def {
		t.Errorf("tuned %q = %g s/iter does not beat default %g", rep.Schedule, got, def)
	}
}

// TestAutotuneDeterminism: equal options replay the identical search —
// same schedule, same report — because sampling draws from the
// counter-based stream and the virtual-time objective is deterministic.
func TestAutotuneDeterminism(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	run := func() (DistConfig, AutotuneReport) {
		dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
		tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: 2, MaxCandidates: 16})
		return tuned, *rep
	}
	t1, r1 := run()
	t2, r2 := run()
	if r1 != r2 {
		t.Errorf("reports diverged:\n  %+v\n  %+v", r1, r2)
	}
	if t1.Sync != t2.Sync || t1.BucketBytes != t2.BucketBytes || t1.Allreduce != t2.Allreduce ||
		t1.bucketChannels != t2.bucketChannels {
		t.Errorf("tuned schedules diverged: %+v vs %+v", t1, t2)
	}
}

// TestAutotuneProbingZeroAllocsPerIter pins the probing cost: with shared
// pools and workspaces warmed, lengthening a probe adds no allocations —
// the probe runs reuse the same workspaces across all candidate
// schedules, so only the probe's virtual time grows with the budget.
// Structured like distAllocsPerIter: two searches identical except for the
// deciding round's length are differenced, cancelling the fixed search
// bookkeeping.
func TestAutotuneProbingZeroAllocsPerIter(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	search := func(final int) func() {
		o := AutotuneOpts{FinalIters: final, MaxCandidates: 12}
		return func() {
			dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
			AutotuneDistConfig(dc, o)
		}
	}
	search(64)() // warmup: sizes workspaces for every probed schedule
	short := testing.AllocsPerRun(5, search(33))
	long := testing.AllocsPerRun(5, search(64))
	// Both searches halve 13 candidates (12 sampled + incumbent) over seven
	// rounds of 1, 2, 4 … 32 iterations and differ only in the last: 33 or
	// 64 iterations, so the long one simulates at least 31 more; a
	// per-iteration allocation would add ≥ 31 allocs. Scheduler jitter
	// across the cluster runs accounts for a few allocs either way, so the
	// bound is not exact equality.
	if long-short >= 13 {
		t.Errorf("probing allocates per iteration: %v allocs deciding at 33 iters vs %v at 64", short, long)
	}
}
