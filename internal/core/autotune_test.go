package core

import (
	"slices"
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

// autotuneIncumbents are the starting schedules the contract tests tune
// from: the bucketed+overlapped default, the paper's flat-sync pipeline,
// and a deliberately bad pick off the bucket ladder.
var autotuneIncumbents = []struct {
	name string
	set  func(*DistConfig)
}{
	{"default", func(*DistConfig) {}},
	{"flat-sync", flatSync},
	// 1 MiB buckets are off the search ladder: this exercises the extra incumbent probe.
	{"sync-tree-1MiB", all(flatSync, bucket(1<<20), algo(comm.BinaryTree))},
}

// TestAutotuneNeverWorseThanIncumbent is the tuner's contract: whatever
// schedule dc starts from, the tuned schedule measures what the report
// says and no worse than the incumbent at the probe budget, the tuner
// touches only schedule knobs, and the report counts one probe per
// candidate — every enumerated schedule plus an off-ladder incumbent.
func TestAutotuneNeverWorseThanIncumbent(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	const final = 4
	for _, inc := range autotuneIncumbents {
		dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
		inc.set(&dc)
		tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: final})
		got := measure(tuned, final)
		if got != rep.TunedSeconds || rep.TunedSeconds > rep.BaselineSeconds {
			t.Errorf("%s: tuned %q measures %g s/iter, report says %g (incumbent %g)",
				inc.name, rep.Schedule, got, rep.TunedSeconds, rep.BaselineSeconds)
		}
		wantCands := len(scheduleCandidates())
		if !slices.Contains(scheduleCandidates(), incumbent(&dc)) {
			wantCands++
		}
		if rep.Probes != rep.Candidates || rep.Candidates != wantCands {
			t.Errorf("%s: %d probes over %d candidates, want %d of each",
				inc.name, rep.Probes, rep.Candidates, wantCands)
		}
		if tuned.Iters != dc.Iters || tuned.Cfg.Name != dc.Cfg.Name {
			t.Errorf("%s: tuner must only touch schedule knobs", inc.name)
		}
	}
}

// TestAutotuneFindsMinimum: from each incumbent, the tuned schedule is the
// argmin of the modelled iteration time at the probe budget over every
// enumerated candidate and the incumbent.
func TestAutotuneFindsMinimum(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	const final = 4
	for _, inc := range autotuneIncumbents {
		dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
		inc.set(&dc)
		tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: final})
		got := measure(tuned, final)
		for _, c := range append(scheduleCandidates(), incumbent(&dc)) {
			if other := measure(c.apply(dc), final); got > other {
				t.Errorf("%s: tuned %q measures %g s/iter, candidate %q %g",
					inc.name, rep.Schedule, got, c, other)
			}
		}
	}
}

// TestAutotuneProbesAtFinalBudget: every probe runs for FinalIters
// iterations (4 when unset), so the schedule is decided at that budget —
// the report's incumbent and tuned times are the measurements there. The
// virtual-time model is steady-state, so at the Large / 16-rank shape the
// budgets differ only in the last bits of the per-iteration time, which
// the exact comparison still tells apart.
func TestAutotuneProbesAtFinalBudget(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	for _, tc := range []struct{ opt, iters int }{{1, 1}, {2, 2}, {0, 4}, {8, 8}} {
		dc := autotuneBase(Large, 16, Large.GlobalMB, pools, wss)
		tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: tc.opt})
		if base := measure(dc, tc.iters); rep.BaselineSeconds != base {
			t.Errorf("FinalIters %d: incumbent reported at %.17g s/iter, measures %.17g at %d iters",
				tc.opt, rep.BaselineSeconds, base, tc.iters)
		}
		if got := measure(tuned, tc.iters); rep.TunedSeconds != got {
			t.Errorf("FinalIters %d: tuned %q reported at %.17g s/iter, measures %.17g at %d iters",
				tc.opt, rep.Schedule, rep.TunedSeconds, got, tc.iters)
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
// quotes: at the 64-rank strong-scaling headline, probing the full space
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
// same schedule, same report — because the virtual-time objective is
// deterministic.
func TestAutotuneDeterminism(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	run := func() (DistConfig, AutotuneReport) {
		dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
		tuned, rep := AutotuneDistConfig(dc, AutotuneOpts{FinalIters: 2})
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
// probe budget are differenced, cancelling the fixed per-probe bookkeeping.
func TestAutotuneProbingZeroAllocsPerIter(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	search := func(final int) func() {
		return func() {
			dc := autotuneBase(Small, 4, Small.GlobalMB, pools, wss)
			AutotuneDistConfig(dc, AutotuneOpts{FinalIters: final})
		}
	}
	search(8)() // warmup: sizes workspaces for every probed schedule
	short := testing.AllocsPerRun(3, search(4))
	long := testing.AllocsPerRun(3, search(8))
	// Both searches probe all 132 candidates once, for 4 or 8 iterations, so
	// the long one simulates 528 more; a per-iteration allocation would add
	// ≥ 528 allocs. The bound is one alloc per probe, not exact equality.
	if n := float64(len(scheduleCandidates())); long-short >= n {
		t.Errorf("probing allocates per iteration: %v allocs probing 4 iters vs %v at 8", short, long)
	}
}
