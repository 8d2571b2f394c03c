package serve

import (
	"errors"
	"slices"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
)

// Workspaces carries the serving tier's reusable state across runs: the
// dispatcher queue, per-replica busy-until clock, the latency sample, the
// fan-in pricer's flow scratch and tables per owner, a batch's price by its
// size, the record of served batches, the evaluation pass's two staging
// minibatches, and the functional replica set itself — one core.Predictor
// per replica over its shard of core.NewModelShards: its own tables and one
// dense half (MLPs, interaction) all replicas share. That is exact: serving
// never writes a weight, the evaluation pass runs one forward at a time, and
// a Workspaces refuses a second concurrent Run. It leaves the
// host what each modelled socket has, one copy of the MLP weights per cache,
// not R copies contending for one LLC. The set is keyed by what determines
// its weights: a deep copy of RunCfg, Seed and Replicas. A functional run
// whose key matches reuses it, re-pointing each predictor at the run's pool;
// any other functional run rebuilds it; timing-only runs leave it alone.
// No weight is ever written, so reuse is exact too: one Workspaces across a
// sweep yields the same results as a fresh one per run, builds the replicas
// once, and makes steady-state serving allocation-free (the differencing test).
//
// A Workspaces serves one Run at a time; Run reports an error rather than
// let two concurrent runs share queue buffers and model forward scratch.
type Workspaces struct {
	inUse   atomic.Bool
	queue   []pending
	repFree []float64
	lat     []float64
	perSrc  []float64
	owned   []float64 // tables per replica, core.NumLocalTables
	prices  []price   // by batch size, zero until priced
	fanin   comm.FanIn
	batches []batch           // the served batches, in dispatch order
	stage   [2]data.MiniBatch // the evaluation pass's fill / forward ring

	key   replicaKey
	preds []*core.Predictor // the replica set built for key; nil until then
}

// replicaKey is what a replica set's weights are a function of. cfg owns
// its slices, so a caller mutating its RunCfg in place misses the key.
type replicaKey struct {
	cfg      core.Config
	seed     int64
	replicas int
}

// NewWorkspaces returns an empty workspace set; buffers grow on first use.
func NewWorkspaces() *Workspaces { return &Workspaces{} }

var errInUse = errors.New("serve: Workspaces already in use by another Run; concurrent runs need one Workspaces each")

// prepare sizes the workspace for one run's config.
func (ws *Workspaces) prepare(c Config) {
	if cap(ws.queue) < c.Policy.MaxBatch {
		ws.queue = make([]pending, 0, c.Policy.MaxBatch)
	}
	if cap(ws.repFree) < c.Replicas {
		ws.repFree = make([]float64, c.Replicas)
	}
	ws.repFree = ws.repFree[:c.Replicas]
	for i := range ws.repFree {
		ws.repFree[i] = 0
	}
	if cap(ws.perSrc) < c.Replicas {
		ws.perSrc = make([]float64, c.Replicas)
	}
	ws.perSrc = ws.perSrc[:c.Replicas]
	ws.owned = ws.owned[:0]
	for o := 0; o < c.Replicas; o++ {
		ws.owned = append(ws.owned, float64(core.NumLocalTables(c.Cfg, o, c.Replicas)))
	}
	if cap(ws.prices) <= c.Policy.MaxBatch {
		ws.prices = make([]price, c.Policy.MaxBatch+1)
	}
	ws.prices = ws.prices[:c.Policy.MaxBatch+1]
	clear(ws.prices)
	ws.fanin.Topo = c.Topo
}

// replicas returns functional config c's replica set, building it unless
// the cached one has the same key, with replica r's predictor running on
// pools.Get(r, cores).
func (ws *Workspaces) replicas(c Config, pools *cluster.Pools, cores int) []*core.Predictor {
	if ws.preds == nil || ws.key.seed != c.Seed || ws.key.replicas != c.Replicas ||
		!sameConfig(&ws.key.cfg, c.RunCfg) {
		ws.preds = nil // let the old set go before the new one is drawn
		cfg := cloneConfig(c.RunCfg)
		preds := make([]*core.Predictor, c.Replicas)
		for r, m := range core.NewModelShards(cfg, 1, c.Seed, c.Replicas) {
			preds[r] = core.NewPredictor(m, nil)
		}
		ws.key, ws.preds = replicaKey{cfg: cfg, seed: c.Seed, replicas: c.Replicas}, preds
	}
	for r, p := range ws.preds {
		p.Pool = pools.Get(r, cores)
	}
	return ws.preds
}

// cloneConfig returns a copy of c that shares no slice with it.
func cloneConfig(c *core.Config) core.Config {
	d := *c
	d.Rows, d.BotHidden, d.TopHidden = slices.Clone(c.Rows), slices.Clone(c.BotHidden), slices.Clone(c.TopHidden)
	return d
}

// sameConfig reports whether a and b are equal field by field, slices by
// value. TestReplicaKeyCoversConfig keeps both helpers in step with
// core.Config.
func sameConfig(a, b *core.Config) bool {
	return a.Name == b.Name && a.MB == b.MB && a.GlobalMB == b.GlobalMB && a.LocalMB == b.LocalMB &&
		a.Lookups == b.Lookups && a.Tables == b.Tables && a.EmbDim == b.EmbDim &&
		slices.Equal(a.Rows, b.Rows) && a.DenseIn == b.DenseIn &&
		slices.Equal(a.BotHidden, b.BotHidden) && slices.Equal(a.TopHidden, b.TopHidden)
}
