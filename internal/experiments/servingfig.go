package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// servingScale is one model scale of the sweep.
type servingScale struct {
	cfg      core.Config
	replicas int
}

// servingBase is the scale's serving config before policy and load.
func (s servingScale) base() serve.Config {
	return serve.Config{
		Cfg:      s.cfg,
		Replicas: s.replicas,
		Topo:     opaTree(s.replicas),
		Socket:   perfmodel.CLX8280,
		Backend:  cluster.CCLBackend,
	}
}

// servingFig is the online-serving figure: p50/p99 latency vs sustained
// throughput for a batching-policy × offered-load sweep at two model
// scales (MLPerf sharded over 8 sockets, Large over 64 — the Fig. 9
// cluster shapes, forward-only). Three policies bracket the design space:
// max-batch 32 without an SLO (everything is served, however late),
// max-batch 32 under a 2×(wait+service) SLO (the dispatcher sheds what
// cannot make it, so p99 stays bounded at any load), and max-batch 128
// under its own SLO (the larger batch buys strictly more peak throughput).
// Each run replays 30×128 requests — a multiple of the largest max-batch
// keeps the drain tail from skewing short-run throughput — at offered loads
// of 0.5, 1.5 and 3 times the policy's modeled capacity
// (Replicas·MaxBatch/ServiceTime(MaxBatch)).
func servingFig(Opts) *Table {
	t := &Table{
		Title: "Online serving: latency vs throughput under dynamic batching " +
			"(OPA cluster, CCL backend, Poisson arrivals)",
		Headers: []string{"model", "replicas", "policy", "load",
			"offered q/s", "served", "shed", "mean B", "p50 ms", "p99 ms", "served q/s"},
	}
	for _, sc := range []servingScale{{core.MLPerf, 8}, {core.Large, 64}} {
		ws := serve.NewWorkspaces()
		for _, maxBatch := range []int{32, 128} {
			base := sc.base()
			base.Policy = serve.Policy{MaxBatch: maxBatch, MaxWait: 2e-3}
			base.Requests = 30 * 128
			base.OfferedQPS = 1 // placeholder for ServiceTime validation
			svc, err := base.ServiceTime(maxBatch)
			if err != nil {
				panic(err)
			}
			capacity := float64(sc.replicas) * float64(maxBatch) / svc
			policies := []serve.Policy{
				{MaxBatch: maxBatch, MaxWait: 2e-3, SLO: 2 * (2e-3 + svc)},
			}
			if maxBatch == 32 {
				// The unbounded policy rides the smaller batch only; one
				// pair is enough to show what the SLO buys.
				policies = append([]serve.Policy{{MaxBatch: maxBatch, MaxWait: 2e-3}}, policies...)
			}
			for _, pol := range policies {
				for _, load := range []float64{0.5, 1.5, 3} {
					c := base
					c.Policy = pol
					c.OfferedQPS = load * capacity
					c.Workspaces = ws
					res, err := serve.Run(c)
					if err != nil {
						panic(err)
					}
					t.AddRow(sc.cfg.Name, fmt.Sprint(sc.replicas), pol.Name(),
						fmt.Sprintf("%.1fx", load),
						fmt.Sprintf("%.0f", res.OfferedQPS),
						fmt.Sprint(res.Served), fmt.Sprint(res.Shed),
						fmt.Sprintf("%.1f", res.MeanBatch),
						fmt.Sprintf("%.2f", res.P50*1e3),
						fmt.Sprintf("%.2f", res.P99*1e3),
						fmt.Sprintf("%.0f", res.Throughput))
				}
			}
			t.AddNote("%s x%d, B=%d: modeled service %.2f ms/batch, capacity %.0f q/s",
				sc.cfg.Name, sc.replicas, maxBatch, svc*1e3, capacity)
		}
	}
	t.AddNote("loads are multiples of each policy's modeled capacity; SLO policies shed " +
		"what cannot finish in time, so their p99 never exceeds the SLO")
	return t
}
