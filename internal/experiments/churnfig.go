package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
)

// mustRunElastic panics on a driver error (the sweeps construct known-valid
// configurations).
func mustRunElastic(ec core.ElasticConfig) *core.ElasticResult {
	res, err := core.RunElastic(ec)
	if err != nil {
		panic(err)
	}
	return res
}

// churnFig is the elastic-training figure: time-to-recover and
// throughput-under-churn versus checkpoint interval and failure rate at the
// Fig. 9/12 cluster shapes. Three case families per scale: the fault-free
// baseline (with and without the checkpoint cadence, isolating the pure
// checkpointing tax), a single mid-run rank failure per cadence (the
// recovery breakdown: detect + restore + replay), and a randomized churn
// schedule per cadence × rate (survival under repeated failures, down to
// MinRanks). Every run trains 40 productive iterations by default, under
// checkpoint cadences of 2, 5 and 10 iterations and per-boundary failure
// rates of 5% and 10%, drawn from a counter-based schedule (seed 1: the
// same failures every time).
func churnFig(o Opts) *Table {
	const ranks, seed = 64, 1
	iters := o.iters(40)
	intervals, rates := []int{2, 5, 10}, []float64{0.05, 0.10}
	t := &Table{
		Title: "Elastic training under churn: recovery time and effective throughput " +
			"(Large, 64 ranks, OPA cluster, CCL Alltoall, bucketed+overlapped)",
		Headers: []string{"scale", "case", "ckpt", "fails", "final R",
			"TTR ms", "detect/restore/replay ms", "eff ms/iter", "overhead"},
	}
	scales := []struct {
		name    string
		globalN int
	}{
		{"Fig9 strong (GN=2048)", core.Large.GlobalMB},
		{"Fig12 weak (LN=32)", core.Large.LocalMB * ranks},
	}
	for _, sc := range scales {
		base := opaConfig(core.Large, ranks, sc.globalN, cclAlltoall)
		base.Iters = iters
		addRow := func(label string, every int, res *core.ElasticResult, baseline float64) {
			var ttr, det, rst, rep float64
			for _, r := range res.Recoveries {
				ttr += r.TimeToRecover()
				det += r.DetectSeconds
				rst += r.DrainSeconds + r.RestoreSeconds
				rep += r.ReplaySeconds
			}
			eff := res.EffectiveIterSeconds()
			over := "-"
			if baseline > 0 {
				over = pct(eff/baseline - 1)
			}
			ck := "off"
			if every > 0 {
				ck = fmt.Sprint(every)
			}
			t.AddRow(sc.name, label, ck, fmt.Sprint(len(res.Recoveries)),
				fmt.Sprint(res.FinalRanks), ms(ttr),
				fmt.Sprintf("%s/%s/%s", ms(det), ms(rst), ms(rep)),
				ms(eff), over)
		}

		faultFree := mustRunElastic(core.ElasticConfig{Base: base})
		baseline := faultFree.EffectiveIterSeconds()
		addRow("fault-free", 0, faultFree, baseline)
		for _, every := range intervals {
			res := mustRunElastic(core.ElasticConfig{Base: base, CheckpointEvery: every})
			addRow("fault-free", every, res, baseline)
		}
		for _, every := range intervals {
			res := mustRunElastic(core.ElasticConfig{
				Base: base,
				Plan: &cluster.FaultPlan{Events: []cluster.FaultEvent{
					{Kind: cluster.RankFail, Iter: iters / 2, Rank: 13},
				}},
				CheckpointEvery: every,
			})
			addRow("1 failure", every, res, baseline)
		}
		for _, every := range intervals {
			for _, rate := range rates {
				plan := cluster.RandomChurn(seed, ranks, ranks/2, iters, rate)
				res := mustRunElastic(core.ElasticConfig{
					Base: base, Plan: plan,
					CheckpointEvery: every,
					MinRanks:        ranks / 2,
				})
				addRow(fmt.Sprintf("churn %.0f%%", rate*100), every, res, baseline)
			}
		}
	}
	t.AddNote("TTR sums detect (collective timeout, %.1fs) + checkpoint restore + replay over all failures", cluster.DefaultDetectSeconds)
	t.AddNote("overhead is effective ms/iter vs the fault-free, checkpoint-off baseline at the same scale")
	t.AddNote("churn rows inject failures at per-boundary rate from a counter-based schedule (seed %d), floored at %d ranks", seed, ranks/2)
	return t
}
