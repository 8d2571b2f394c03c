package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
)

// elasticTestConfig is distTestConfig at the elastic tests' shape: the
// flat-sync schedule (parity semantics, not schedule tuning).
func elasticTestConfig(ranks, globalN, iters int, v Variant, functional bool) ElasticConfig {
	return ElasticConfig{Base: distTestConfig(tinyConfig(), ranks, globalN, iters, v, functional)}
}

// TestElasticChurnLossParity is the headline tentpole check: a run that
// loses a rank mid-run — restored from a periodic shard checkpoint, lost
// iterations replayed — must match an uninterrupted run at the surviving
// shape to float-reassociation tolerance, for every communication strategy
// and both backends.
func TestElasticChurnLossParity(t *testing.T) {
	const globalN, iters = 48, 6
	for _, v := range Variants {
		// Uninterrupted reference at the surviving shape R' = 3.
		ref, err := distTestConfig(tinyConfig(), 3, globalN, iters, v, true).Run()
		if err != nil {
			t.Fatal(err)
		}
		refLosses := ref.MeanLosses()

		ec := elasticTestConfig(4, globalN, iters, v, true)
		ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{
			{Kind: cluster.RankFail, Iter: 4, Rank: 2},
		}}
		ec.CheckpointEvery = 2
		res, err := RunElastic(ec)
		if err != nil {
			t.Fatal(err)
		}

		if len(res.Recoveries) != 1 {
			t.Fatalf("%s: %d recoveries, want 1", v.Name(), len(res.Recoveries))
		}
		rec := res.Recoveries[0]
		if rec.CkptIter != 2 || rec.ReplayIters != 2 {
			t.Fatalf("%s: restored from iter %d replaying %d, want 2/2", v.Name(), rec.CkptIter, rec.ReplayIters)
		}
		if rec.DetectSeconds <= 0 || rec.RestoreSeconds <= 0 || rec.ReplaySeconds <= 0 {
			t.Fatalf("%s: degenerate recovery breakdown %+v", v.Name(), rec)
		}
		if res.FinalRanks != 3 {
			t.Fatalf("%s: final ranks %d, want 3", v.Name(), res.FinalRanks)
		}
		if got := rec.OldRanks*10 + rec.NewRanks; got != 43 {
			t.Fatalf("%s: recovery %d→%d ranks, want 4→3", v.Name(), rec.OldRanks, rec.NewRanks)
		}
		if len(res.Losses) != iters {
			t.Fatalf("%s: %d stitched losses, want %d", v.Name(), len(res.Losses), iters)
		}
		for i := range refLosses {
			if d := math.Abs(res.Losses[i] - refLosses[i]); d > 1e-6 {
				t.Fatalf("%s: iter %d loss %v vs uninterrupted %v (Δ=%g > 1e-6)",
					v.Name(), i, res.Losses[i], refLosses[i], d)
			}
		}
		// The final segment's models must match the uninterrupted run's to
		// the same tolerance.
		final := res.Segments[len(res.Segments)-1].Res
		for rk := 0; rk < 3; rk++ {
			checkMLPClose(t, v.Name(), final.Models[rk], ref.Models[rk], 1e-6)
		}
	}
}

// TestElasticChurnPaddedLayer is the churn parity at the benchmark's mini
// MLPerf shape, whose top MLP stores a padded first layer: the 4-rank
// shards' checkpoints (pad column included) restore into the 3-rank models
// and the stitched run matches the uninterrupted one.
func TestElasticChurnPaddedLayer(t *testing.T) {
	const globalN, iters = 48, 6
	cfg := miniMLPerfConfig()
	v := Variant{Alltoall, cluster.CCLBackend}
	ref, err := distTestConfig(cfg, 3, globalN, iters, v, true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if l := ref.Models[0].Top.Layers[0]; l.C != 383 || l.W.C != 384 {
		t.Fatalf("top layer 0 is %d wide stored as %d, want 383 as 384", l.C, l.W.C)
	}
	ec := ElasticConfig{Base: distTestConfig(cfg, 4, globalN, iters, v, true), CheckpointEvery: 2}
	ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.RankFail, Iter: 4, Rank: 1}}}
	res, err := RunElastic(ec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].CkptIter != 2 || res.FinalRanks != 3 {
		t.Fatalf("recoveries %+v, final ranks %d; want one restore from iteration 2 onto 3 ranks", res.Recoveries, res.FinalRanks)
	}
	for i, want := range ref.MeanLosses() {
		if d := math.Abs(res.Losses[i] - want); d > 1e-6 {
			t.Fatalf("iter %d loss %v vs uninterrupted %v (Δ=%g > 1e-6)", i, res.Losses[i], want, d)
		}
	}
	final := res.Segments[len(res.Segments)-1].Res
	for rk := 0; rk < 3; rk++ {
		checkMLPClose(t, "padded churn", final.Models[rk], ref.Models[rk], 1e-6)
	}
}

// TestElasticNoCheckpointBitExact pins the strongest parity: with no
// checkpoints a failure restarts from a fresh seed re-init at the surviving
// shape — and because table seeding is rank-count independent, the restart
// IS an uninterrupted run at that shape, bit for bit.
func TestElasticNoCheckpointBitExact(t *testing.T) {
	const globalN, iters = 48, 5
	v := Variant{Alltoall, cluster.CCLBackend}
	ref, err := distTestConfig(tinyConfig(), 3, globalN, iters, v, true).Run()
	if err != nil {
		t.Fatal(err)
	}
	refLosses := ref.MeanLosses()

	ec := elasticTestConfig(4, globalN, iters, v, true)
	ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{
		{Kind: cluster.RankFail, Iter: 3, Rank: 0},
	}}
	res, err := RunElastic(ec)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recoveries[0]
	if rec.CkptIter != 0 || rec.ReplayIters != 3 || rec.RestoreSeconds != 0 {
		t.Fatalf("no-checkpoint recovery %+v, want full replay from 0 with no restore read", rec)
	}
	for i := range refLosses {
		if res.Losses[i] != refLosses[i] {
			t.Fatalf("iter %d loss %v, want bit-exact %v", i, res.Losses[i], refLosses[i])
		}
	}
}

// TestElasticRescale checks the graceful R → R' path: drain at the
// boundary, restart at the new shape, no replay — and the stitched run
// still tracks the single-socket reference.
func TestElasticRescale(t *testing.T) {
	const globalN, iters = 48, 6
	v := Variant{FusedScatter, cluster.MPIBackend}
	_, refLosses := trainSingle(tinyConfig(), globalN, iters, 17, 0.5)

	ec := elasticTestConfig(4, globalN, iters, v, true)
	ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{
		{Kind: cluster.Rescale, Iter: 3, NewRanks: 2},
	}}
	res, err := RunElastic(ec)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recoveries[0]
	if rec.Kind != cluster.Rescale || rec.ReplayIters != 0 || rec.DetectSeconds != 0 {
		t.Fatalf("rescale recovery %+v, want drain+restore only", rec)
	}
	if rec.DrainSeconds <= 0 || rec.RestoreSeconds <= 0 {
		t.Fatalf("rescale without drain/restore charge: %+v", rec)
	}
	if res.FinalRanks != 2 || len(res.Segments) != 2 || res.Segments[1].Ranks != 2 {
		t.Fatalf("rescale did not land on 2 ranks: final=%d segments=%+v", res.FinalRanks, res.Segments)
	}
	for i := range refLosses {
		if d := math.Abs(res.Losses[i] - refLosses[i]); d > 2e-3 {
			t.Fatalf("iter %d loss %v vs single-socket %v (Δ=%g)", i, res.Losses[i], refLosses[i], d)
		}
	}
}

// TestElasticDeterminism: two identical elastic runs — including a
// virtual-time-anchored event and randomized churn resolution — report
// identical virtual clocks and losses.
func TestElasticDeterminism(t *testing.T) {
	const globalN, iters = 48, 6
	run := func() *ElasticResult {
		ec := elasticTestConfig(4, globalN, iters, Variant{Alltoall, cluster.CCLBackend}, true)
		ec.CheckpointEvery = 2
		ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{
			{Kind: cluster.RankFail, At: 1e-3, Rank: 1}, // virtual-time anchored
		}}
		res, err := RunElastic(ec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalSeconds != b.TotalSeconds || a.OverheadSeconds != b.OverheadSeconds {
		t.Fatalf("virtual clocks differ: %v/%v vs %v/%v",
			a.TotalSeconds, a.OverheadSeconds, b.TotalSeconds, b.OverheadSeconds)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("iter %d losses differ: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
}

// TestElasticRetune: on a shape change the driver re-runs the schedule
// autotuner (memoized per rank count) and reports what it chose.
func TestElasticRetune(t *testing.T) {
	ec := elasticTestConfig(4, 64, 6, Variant{Alltoall, cluster.CCLBackend}, false)
	ec.Base.Sync = false
	ec.Base.BucketBytes = 0
	ec.Retune = true
	ec.Tune = AutotuneOpts{ProbeIters: 1, FinalIters: 1, MaxCandidates: 4}
	ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{
		{Kind: cluster.RankFail, Iter: 2, Rank: 3},
		{Kind: cluster.RankFail, Iter: 4, Rank: 0},
	}}
	res, err := RunElastic(ec)
	if err != nil {
		t.Fatal(err)
	}
	// Three rank counts (4, 3, 2) → three memoized tuner runs.
	if len(res.Retunes) != 3 {
		t.Fatalf("%d retune reports, want 3 (one per distinct rank count)", len(res.Retunes))
	}
	for _, rep := range res.Retunes {
		if rep == nil || rep.Schedule == "" {
			t.Fatalf("empty retune report: %+v", rep)
		}
	}
	for _, seg := range res.Segments {
		if seg.Schedule == "" {
			t.Fatal("segment without a schedule label")
		}
	}
}

// TestElasticValidate is the rejection table for incoherent elastic
// configurations and impossible fault plans.
func TestElasticValidate(t *testing.T) {
	base := func() ElasticConfig {
		return elasticTestConfig(4, 48, 6, Variant{Alltoall, cluster.CCLBackend}, true)
	}
	cases := []struct {
		name string
		mut  func(ec *ElasticConfig)
	}{
		{"driver-owned StartIter", func(ec *ElasticConfig) { ec.Base.StartIter = 2 }},
		{"driver-owned CheckpointEvery", func(ec *ElasticConfig) { ec.Base.CheckpointEvery = 2 }},
		{"negative cadence", func(ec *ElasticConfig) { ec.CheckpointEvery = -1 }},
		{"negative detect", func(ec *ElasticConfig) { ec.DetectSeconds = -1 }},
		{"min ranks above start", func(ec *ElasticConfig) { ec.MinRanks = 9 }},
		{"kills nonexistent rank", func(ec *ElasticConfig) {
			ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.RankFail, Iter: 2, Rank: 7}}}
		}},
		{"shrinks below min ranks", func(ec *ElasticConfig) {
			ec.MinRanks = 4
			ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.RankFail, Iter: 2, Rank: 0}}}
		}},
		{"functional indivisible survivor shape", func(ec *ElasticConfig) {
			// 48 % 4 == 0 but a rescale to 5 ranks breaks divisibility.
			ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.Rescale, Iter: 2, NewRanks: 5}}}
		}},
		{"rescale beyond table count", func(ec *ElasticConfig) {
			ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.Rescale, Iter: 2, NewRanks: 12}}}
		}},
		{"invalid plan event", func(ec *ElasticConfig) {
			ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.RankFail, Iter: -1, Rank: 0}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ec := base()
			tc.mut(&ec)
			if _, err := RunElastic(ec); err == nil {
				t.Fatalf("RunElastic accepted %s", tc.name)
			}
		})
	}
}

// TestFailureRemapProperty is the resharding property test: for every
// cluster size 2–8, every failed rank, and every communication strategy,
// the survivors' implicit remap must (a) own every embedding table exactly
// once, (b) partition the global minibatch exactly, and (c) agree with the
// per-rank table lists the distributed workspaces prepare.
func TestFailureRemapProperty(t *testing.T) {
	cfg := tinyConfig()
	cfg.Tables = 11
	cfg.Rows = []int{200, 300, 100, 250, 150, 90, 210, 130, 170, 110, 240}
	const globalN = 8 * 9 * 7 * 5 // divisible by every count 2..9

	for ranks := 2; ranks <= 8; ranks++ {
		for failed := 0; failed < ranks; failed++ {
			newRanks := ranks - 1
			// (a) Table ownership after the remap: every table exactly once.
			owners := make([]int, cfg.Tables)
			for t2 := range owners {
				owners[t2] = -1
			}
			for r := 0; r < newRanks; r++ {
				for _, t2 := range LocalTables(cfg, r, newRanks) {
					if owners[t2] != -1 {
						t.Fatalf("R=%d fail=%d: table %d owned by ranks %d and %d", ranks, failed, t2, owners[t2], r)
					}
					owners[t2] = r
					if TableOwner(t2, newRanks) != r {
						t.Fatalf("R=%d: LocalTables and TableOwner disagree on table %d", newRanks, t2)
					}
				}
			}
			for t2, o := range owners {
				if o == -1 {
					t.Fatalf("R=%d fail=%d: table %d orphaned after remap", ranks, failed, t2)
				}
			}
			// (b) Survivor data shards partition [0, globalN) exactly.
			next := 0
			for r := 0; r < newRanks; r++ {
				lo, hi := data.ShardRange(globalN, r, newRanks)
				if lo != next || hi < lo {
					t.Fatalf("R=%d fail=%d: shard %d is [%d,%d), want to start at %d", ranks, failed, r, lo, hi, next)
				}
				next = hi
			}
			if next != globalN {
				t.Fatalf("R=%d fail=%d: shards cover %d of %d samples", ranks, failed, next, globalN)
			}
			// (c) The workspaces' prepared table lists match, per strategy.
			for _, v := range Variants {
				dc := distTestConfig(cfg, newRanks, globalN, 1, v, false)
				wss := NewDistWorkspaces()
				for r := 0; r < newRanks; r++ {
					ws := wss.get(r)
					ws.prepare(&dc, r)
					want := LocalTables(cfg, r, newRanks)
					if len(ws.locT) != len(want) {
						t.Fatalf("%s R=%d rank %d: workspace owns %d tables, want %d",
							v.Name(), newRanks, r, len(ws.locT), len(want))
					}
					for i := range want {
						if ws.locT[i] != want[i] {
							t.Fatalf("%s R=%d rank %d: workspace table list %v, want %v",
								v.Name(), newRanks, r, ws.locT, want)
						}
					}
				}
			}
		}
	}
}
