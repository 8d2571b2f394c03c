package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
)

// elasticTestConfig is distTestConfig at the elastic tests' shape: the
// flat-sync schedule (parity semantics, not schedule tuning).
func elasticTestConfig(ranks, globalN, iters int, v Variant, functional bool) ElasticConfig {
	return ElasticConfig{Base: distTestConfig(tinyConfig(), ranks, globalN, iters, v, functional)}
}

// elastic runs ec through the fault events.
func elastic(t *testing.T, ec ElasticConfig, events ...cluster.FaultEvent) *ElasticResult {
	t.Helper()
	ec.Plan = &cluster.FaultPlan{Events: events}
	res, err := RunElastic(ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkChurn runs cfg on 4 ranks for 6 iterations with a shard checkpoint
// every 2 and rank fail lost at iteration 4. Restored from the iteration-2
// checkpoint with 2 iterations replayed, the run must match an uninterrupted
// one at the surviving shape, 3 ranks, to float-reassociation tolerance:
// every stitched loss and the final models at 1e-6. It returns that
// uninterrupted run.
func checkChurn(t *testing.T, cfg Config, v Variant, fail int) *DistResult {
	t.Helper()
	const globalN, iters = 48, 6
	ref := mustRun(distTestConfig(cfg, 3, globalN, iters, v, true))
	res := elastic(t, ElasticConfig{Base: distTestConfig(cfg, 4, globalN, iters, v, true), CheckpointEvery: 2},
		cluster.FaultEvent{Kind: cluster.RankFail, Iter: 4, Rank: fail})
	if len(res.Recoveries) != 1 || res.FinalRanks != 3 || len(res.Losses) != iters {
		t.Fatalf("%s: %d recoveries, %d final ranks, %d stitched losses; want 1, 3, %d",
			v.Name(), len(res.Recoveries), res.FinalRanks, len(res.Losses), iters)
	}
	if rec := res.Recoveries[0]; rec.CkptIter != 2 || rec.ReplayIters != 2 || rec.OldRanks != 4 || rec.NewRanks != 3 ||
		rec.DetectSeconds <= 0 || rec.RestoreSeconds <= 0 || rec.ReplaySeconds <= 0 {
		t.Fatalf("%s: recovery %+v, want 4 → 3 ranks from iteration 2 replaying 2, every phase charged", v.Name(), rec)
	}
	for i, want := range ref.MeanLosses() {
		if d := math.Abs(res.Losses[i] - want); d > 1e-6 {
			t.Fatalf("%s: iter %d loss %v vs uninterrupted %v (Δ=%g > 1e-6)", v.Name(), i, res.Losses[i], want, d)
		}
	}
	final := res.Segments[len(res.Segments)-1].Res
	for rk := 0; rk < 3; rk++ {
		checkModelsClose(t, v.Name(), final.Models[rk], ref.Models[rk], 1e-6)
	}
	return ref
}

// TestElasticChurnLossParity is the headline elastic check, for every
// communication strategy and both backends.
func TestElasticChurnLossParity(t *testing.T) {
	for _, v := range Variants {
		checkChurn(t, tinyConfig(), v, 2)
	}
}

// TestElasticChurnPaddedLayer is the churn parity at the benchmark's mini
// MLPerf shape, whose top MLP stores a padded first layer: the 4-rank
// shards' checkpoints (pad column included) restore into the 3-rank models.
func TestElasticChurnPaddedLayer(t *testing.T) {
	ref := checkChurn(t, miniMLPerfConfig(), Variant{Alltoall, cluster.CCLBackend}, 1)
	if l := ref.Models[0].Top.Layers[0]; l.C != 383 || l.W.C != 384 {
		t.Fatalf("top layer 0 is %d wide stored as %d, want 383 as 384", l.C, l.W.C)
	}
}

// TestElasticNoCheckpointBitExact pins the strongest parity: with no
// checkpoints a failure restarts from a fresh seed re-init at the surviving
// shape — and because table seeding is rank-count independent, the restart
// IS an uninterrupted run at that shape, bit for bit.
func TestElasticNoCheckpointBitExact(t *testing.T) {
	v := Variant{Alltoall, cluster.CCLBackend}
	ref := mustRun(distTestConfig(tinyConfig(), 3, 48, 5, v, true))
	res := elastic(t, elasticTestConfig(4, 48, 5, v, true), cluster.FaultEvent{Kind: cluster.RankFail, Iter: 3, Rank: 0})
	if rec := res.Recoveries[0]; rec.CkptIter != 0 || rec.ReplayIters != 3 || rec.RestoreSeconds != 0 {
		t.Fatalf("no-checkpoint recovery %+v, want full replay from 0 with no restore read", rec)
	}
	if want := ref.MeanLosses(); !slices.Equal(res.Losses, want) {
		t.Fatalf("losses %v, want bit-exact %v", res.Losses, want)
	}
}

// TestElasticRescale checks the graceful R → R' path: drain at the
// boundary, restart at the new shape, no replay — and the stitched run
// still tracks the single-socket reference.
func TestElasticRescale(t *testing.T) {
	_, refLosses := trainSingle(tinyConfig(), 48, 6, 17, 0.5)
	res := elastic(t, elasticTestConfig(4, 48, 6, Variant{FusedScatter, cluster.MPIBackend}, true),
		cluster.FaultEvent{Kind: cluster.Rescale, Iter: 3, NewRanks: 2})
	if rec := res.Recoveries[0]; rec.Kind != cluster.Rescale || rec.ReplayIters != 0 || rec.DetectSeconds != 0 ||
		rec.DrainSeconds <= 0 || rec.RestoreSeconds <= 0 {
		t.Fatalf("rescale recovery %+v, want a charged drain + restore only", rec)
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

// TestElasticDeterminism: two identical elastic runs through a failure,
// checkpoint restore and replay report identical virtual clocks and losses.
func TestElasticDeterminism(t *testing.T) {
	run := func() *ElasticResult {
		ec := elasticTestConfig(4, 48, 6, Variant{Alltoall, cluster.CCLBackend}, true)
		ec.CheckpointEvery = 2
		return elastic(t, ec, cluster.FaultEvent{Kind: cluster.RankFail, Iter: 3, Rank: 1})
	}
	a, b := run(), run()
	if a.TotalSeconds != b.TotalSeconds || a.OverheadSeconds != b.OverheadSeconds || !slices.Equal(a.Losses, b.Losses) {
		t.Fatalf("clocks %v/%v vs %v/%v, losses %v vs %v",
			a.TotalSeconds, a.OverheadSeconds, b.TotalSeconds, b.OverheadSeconds, a.Losses, b.Losses)
	}
}

// TestElasticValidate is the rejection table for incoherent elastic
// configurations and impossible fault plans.
func TestElasticValidate(t *testing.T) {
	plan := func(ev cluster.FaultEvent) func(*ElasticConfig) {
		return func(ec *ElasticConfig) { ec.Plan = &cluster.FaultPlan{Events: []cluster.FaultEvent{ev}} }
	}
	cases := []struct {
		name string
		mut  func(ec *ElasticConfig)
	}{
		{"negative cadence", func(ec *ElasticConfig) { ec.CheckpointEvery = -1 }},
		{"min ranks above start", func(ec *ElasticConfig) { ec.MinRanks = 9 }},
		{"kills nonexistent rank", plan(cluster.FaultEvent{Kind: cluster.RankFail, Iter: 2, Rank: 7})},
		{"shrinks below min ranks", func(ec *ElasticConfig) {
			ec.MinRanks = 4
			plan(cluster.FaultEvent{Kind: cluster.RankFail, Iter: 2, Rank: 0})(ec)
		}},
		// 48 % 4 == 0 but a rescale to 5 ranks breaks divisibility.
		{"functional indivisible survivor shape", plan(cluster.FaultEvent{Kind: cluster.Rescale, Iter: 2, NewRanks: 5})},
		{"rescale beyond table count", plan(cluster.FaultEvent{Kind: cluster.Rescale, Iter: 2, NewRanks: 12})},
		{"invalid plan event", plan(cluster.FaultEvent{Kind: cluster.RankFail, Iter: -1, Rank: 0})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ec := elasticTestConfig(4, 48, 6, Variant{Alltoall, cluster.CCLBackend}, true)
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
			owners := map[int]int{}
			for r := range newRanks {
				for _, t2 := range LocalTables(cfg, r, newRanks) {
					owners[t2]++
					if TableOwner(t2, newRanks) != r {
						t.Fatalf("R=%d: LocalTables and TableOwner disagree on table %d", newRanks, t2)
					}
				}
			}
			for t2 := range cfg.Tables {
				if owners[t2] != 1 {
					t.Fatalf("R=%d fail=%d: table %d owned by %d ranks after the remap", ranks, failed, t2, owners[t2])
				}
			}
			// (b) Survivor data shards partition [0, globalN) exactly.
			next := 0
			for r := range newRanks {
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
				dc := distTestConfig(cfg, newRanks, globalN, 1, v, true)
				wss := NewDistWorkspaces()
				for r := range newRanks {
					ws := wss.get(r)
					ws.prepare(&dc, r)
					if want := LocalTables(cfg, r, newRanks); !slices.Equal(ws.locT, want) {
						t.Fatalf("%s R=%d rank %d: workspace table list %v, want %v", v.Name(), newRanks, r, ws.locT, want)
					}
				}
			}
		}
	}
}
