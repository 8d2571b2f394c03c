// Package serve models the online inference tier over a trained DLRM: a
// front-end dispatcher batches individual click-prediction requests under a
// latency SLO and spreads the batches across model replicas, each replica a
// socket of the same simulated cluster the training side runs on.
//
// The paper's training story (hybrid parallelism: replicated MLPs,
// model-parallel embedding tables) dictates the serving story. Every
// replica holds the full MLPs but only its round-robin shard of the
// embedding tables, so serving one batch is: the shard owners stream their
// bag lookups, the remote owners' outputs fan in to the serving replica
// over the fabric (comm.FanIn — a request-scoped gather, not an SPMD
// collective), and the replica runs the dense forward. All of it is priced
// on the virtual clock from the terms the training plan charges
// (core.Config.Forward, core.DistConfig.EmbForward), so serving latencies
// and training iteration times are in the same currency. Each fan-in is
// priced in isolation: serving batches do not contend with each other for
// fabric links.
//
// The simulator is a single-threaded discrete-event loop, deterministic by
// construction: arrivals are a counter-based Poisson stream (a pure
// function of Seed and request index), dispatch is max-batch/max-wait,
// replica choice is least-loaded with lowest-id tie-break, and SLO
// shedding is an arrival-prefix fixed point. Run with a functional model
// (RunCfg + Dataset) additionally computes every served request's click
// probability through core.Predictor replicas — bit-identical to the same
// request through the full single-socket model, which the parity tests
// pin.
package serve

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// Policy is the dispatcher's batching rule.
type Policy struct {
	// MaxBatch dispatches the queue as soon as it holds this many
	// requests. Must be at least 1; 1 disables batching.
	MaxBatch int
	// MaxWait (seconds) bounds how long the oldest queued request may
	// wait before the queue is dispatched regardless of occupancy. 0
	// dispatches every request the moment it arrives.
	MaxWait float64
	// SLO (seconds) is the end-to-end latency objective. When positive,
	// the dispatcher sheds (drops) the oldest queued requests that could
	// not complete within SLO of their arrival, so no served request ever
	// exceeds it. 0 disables shedding: everything is served, however
	// late.
	SLO float64
}

// Name renders the policy for experiment tables, e.g. "B32/w2.0ms/slo25ms".
func (p Policy) Name() string {
	s := fmt.Sprintf("B%d/w%.1fms", p.MaxBatch, p.MaxWait*1e3)
	if p.SLO > 0 {
		s += fmt.Sprintf("/slo%.0fms", p.SLO*1e3)
	}
	return s
}

// Config describes one serving run: the model and cluster being priced,
// the batching policy, and the offered load.
type Config struct {
	// Cfg is the model whose serving cost is priced (tables, MLP shapes).
	Cfg core.Config
	// Replicas is the number of serving sockets; tables are sharded
	// round-robin across them exactly as training ranks shard
	// (core.TableOwner). At most Cfg.MaxRanks().
	Replicas int
	// Topo is the fabric connecting the replicas. Required when Replicas
	// > 1 (the embedding fan-in crosses it); ignored for a single
	// replica.
	Topo fabric.Topology
	// Socket is the per-replica socket model.
	Socket perfmodel.Socket
	// Backend selects the communication backend personality: CCL pins its
	// default communication cores (4) out of the compute budget and runs at
	// full fabric speed with enough workers; MPI keeps all cores for compute
	// but pays the 1.5x single-threaded-progress slowdown on transfers — the
	// same trade as training (cluster.Config.CommSlowdown).
	Backend cluster.Backend
	// EmbCacheBytes prices each replica's shard pulls through the tiered
	// embedding parameter store (internal/embstore) as a training rank's
	// are: ahead of the bag lookups, the cold tail — the volume the
	// analytic hit rate of a per-replica cache this many bytes large
	// misses — pays the cold tier's latency (core.DefaultColdTierLat per
	// batch) and bandwidth. The lookups are taken to follow
	// core.DefaultEmbSkew. 0 keeps the all-in-RAM pricing. When set,
	// ColdTierBW must be set too.
	EmbCacheBytes int
	// ColdTierBW is the modeled cold-tier streaming bandwidth in bytes/s.
	// Only meaningful with EmbCacheBytes (core.DefaultColdTierBW is the
	// conventional value).
	ColdTierBW float64

	// Policy is the dispatcher's batching rule.
	Policy Policy
	// OfferedQPS is the Poisson arrival rate, requests per second.
	OfferedQPS float64
	// Requests is how many requests to replay.
	Requests int
	// Seed drives the arrival stream and, in functional runs, the replica
	// model initialization.
	Seed int64

	// RunCfg, when set (with Dataset), runs the tier functionally: real
	// replica shard models (host-sized, typically a Scaled config) compute
	// every served request's probability through core.Predictor; a shared
	// Workspaces keeps them across runs. RunCfg.Tables must match Cfg.Tables
	// so the functional sharding matches the priced one.
	RunCfg *core.Config
	// Dataset supplies request features for functional runs: request k is
	// sample k of one Requests-sized batch.
	Dataset data.Dataset
	// Pools supplies the replicas' compute worker pools in functional
	// runs; nil creates a transient set per Run. Share one across a sweep
	// to keep worker teams warm.
	Pools *cluster.Pools
	// Workspaces carries the event-loop and staging buffers and the
	// functional replica set across runs; nil allocates and builds per Run.
	// Share one across a sweep: replicas are rebuilt only when RunCfg
	// (compared by value), Seed or Replicas change, and steady-state
	// serving allocates nothing. One Run at a time per Workspaces — a Run
	// started while another holds it returns an error; concurrent callers
	// each need their own.
	Workspaces *Workspaces
}

// Validate reports the first problem that would make the run panic or mean
// something other than intended. Run calls it; entry points that accept a
// Config should too.
func (c Config) Validate() error {
	if err := c.Cfg.Validate(); err != nil {
		return fmt.Errorf("serve: model config: %w", err)
	}
	dc := c.distConfig()
	if err := dc.ClusterConfig().Validate(); err != nil {
		return fmt.Errorf("serve: the machine of %d Replicas: %w", c.Replicas, err)
	}
	if max := c.Cfg.MaxRanks(); c.Replicas > max {
		return fmt.Errorf("serve: %d replicas but %s shards at most %d ways (one table per replica minimum)", c.Replicas, c.Cfg.Name, max)
	}
	if err := dc.ValidateStore(); err != nil {
		return fmt.Errorf("serve: the replicas' embedding store: %w", err)
	}
	if c.Policy.MaxBatch < 1 {
		return fmt.Errorf("serve: Policy.MaxBatch %d, need at least 1", c.Policy.MaxBatch)
	}
	// NaN and +Inf fail these comparisons too: a NaN deadline serves NaN
	// latencies, an infinite one an infinite p99, and a NaN SLO sheds nothing.
	if w := c.Policy.MaxWait; !(w >= 0 && w < math.Inf(1)) {
		return fmt.Errorf("serve: Policy.MaxWait %g, need a finite value >= 0", w)
	}
	if !(c.Policy.SLO >= 0) {
		return fmt.Errorf("serve: Policy.SLO %g, need >= 0", c.Policy.SLO)
	}
	if !(c.OfferedQPS > 0) {
		return fmt.Errorf("serve: OfferedQPS %g, need > 0", c.OfferedQPS)
	}
	if c.Requests < 1 {
		return fmt.Errorf("serve: Requests %d, need at least 1", c.Requests)
	}
	// No gap exceeds 53·ln 2 / OfferedQPS < 36.8 / OfferedQPS (interarrival),
	// so below this bound the arrival clock stays finite; above it a last
	// arrival at +Inf serves NaN latencies.
	if !(float64(c.Requests)*36.8/c.OfferedQPS < math.MaxFloat64) {
		return fmt.Errorf("serve: OfferedQPS %g: the arrival clock of %d requests could overflow", c.OfferedQPS, c.Requests)
	}
	if (c.RunCfg == nil) != (c.Dataset == nil) {
		return fmt.Errorf("serve: functional runs need both RunCfg and Dataset (got RunCfg=%v, Dataset=%v)", c.RunCfg != nil, c.Dataset != nil)
	}
	if c.RunCfg != nil {
		if err := c.RunCfg.Validate(); err != nil {
			return fmt.Errorf("serve: functional model config: %w", err)
		}
		if c.RunCfg.Tables != c.Cfg.Tables {
			return fmt.Errorf("serve: functional model has %d tables, priced model %d — shard layouts would diverge", c.RunCfg.Tables, c.Cfg.Tables)
		}
		if d := c.Dataset.DenseDim(); d != c.RunCfg.DenseIn {
			return fmt.Errorf("serve: dataset dense width %d, functional model wants %d", d, c.RunCfg.DenseIn)
		}
		if n := c.Dataset.NumTables(); n != c.RunCfg.Tables {
			return fmt.Errorf("serve: dataset has %d tables, functional model wants %d", n, c.RunCfg.Tables)
		}
	}
	return nil
}

// distConfig is the replica set as the ranks of a training run: its
// ClusterConfig is the machine the replicas are priced (and checked) on, and
// a batch is priced from the terms its plan charges.
func (c Config) distConfig() core.DistConfig {
	return core.DistConfig{Cfg: c.Cfg, Ranks: c.Replicas, Topo: c.Topo, Socket: c.Socket,
		Variant: core.Variant{Backend: c.Backend}, EmbCacheBytes: c.EmbCacheBytes, ColdTierBW: c.ColdTierBW}
}

// server is one Run's live state: the replicas' machine, the prices the
// training plan is built from, and (functionally) the replica predictors.
type server struct {
	c   Config
	dc  core.DistConfig // Config.distConfig
	cc  cluster.Config  // dc's machine, backend defaults applied
	fwd core.Forward    // the model's dense forward
	ws  *Workspaces

	preds []*core.Predictor // functional replicas, nil in timing-only runs
}

func (c Config) newServer(ws *Workspaces) *server {
	s := &server{c: c, dc: c.distConfig(), fwd: c.Cfg.Forward(), ws: ws}
	s.cc = s.dc.ClusterConfig().WithDefaults()
	return s
}

// service prices a b-sample batch on replica r: the framework call and the
// shard owners' lookups (batchPrice), the fan-in of the remote owners' bag
// outputs, b·E floats per table, over the fabric, and the dense forward.
func (s *server) service(r, b int) float64 {
	p := s.batchPrice(b)
	fetch := 0.0
	if s.c.Replicas > 1 {
		for o, n := range s.ws.owned { // FanIn skips r's own entry
			s.ws.perSrc[o] = n * float64(b) * float64(s.c.Cfg.EmbDim) * 4
		}
		fetch = s.ws.fanin.Time(r, s.ws.perSrc) * s.cc.CommSlowdown()
	}
	return p.pre + fetch + p.dense
}

// price is the part of a batch's service time no replica changes.
type price struct {
	pre   float64 // the framework call plus the shard owners' lookups
	dense float64 // the dense forward
}

// batchPrice prices a b-sample batch's replica-independent terms. The
// owners run concurrently, so the slowest owner's EmbForward (cold-tier
// fetch included) paces the lookups; the dense forward is one GEMM at b,
// whose batch-dependent efficiency (GemmTimeN) is what makes per-sample
// service time shrink with the batch — the reason the dispatcher batches.
// Pricing walks every owner's tables, so a Run prices each batch size once
// (ws.prices): the dispatcher asks again at every dispatch, and up to b+1
// times when it sheds.
func (s *server) batchPrice(b int) price {
	if b < len(s.ws.prices) && s.ws.prices[b].pre != 0 {
		return s.ws.prices[b]
	}
	lookups := 0.0
	for o := 0; o < s.c.Replicas; o++ {
		if fwd, cold := s.dc.EmbForward(o, b); fwd+cold > lookups {
			lookups = fwd + cold
		}
	}
	flops, bytes := s.fwd.Work(b)
	p := price{pre: s.cc.CallOverhead + lookups,
		dense: s.cc.Socket.GemmTimeN(flops[0]+flops[1]+flops[2], bytes[0]+bytes[1]+bytes[2], s.cc.ComputeCores(), b)}
	if b < len(s.ws.prices) {
		s.ws.prices[b] = p
	}
	return p
}

// ServiceTime returns the service time of one b-sample batch on
// the worst-placed replica: the latency floor a request in a b-batch pays,
// and the capacity anchor (peak throughput ≈ Replicas·b/ServiceTime(b)).
// Drivers use it to derive SLOs and offered-load sweeps from the config
// itself. It allocates; it is not for the event loop.
func (c Config) ServiceTime(b int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	s := c.newServer(NewWorkspaces())
	s.ws.prepare(c)
	worst := 0.0
	for r := 0; r < c.Replicas; r++ {
		if t := s.service(r, b); t > worst {
			worst = t
		}
	}
	return worst, nil
}

// Result is one serving run's outcome. All times are virtual seconds.
type Result struct {
	Policy     Policy
	OfferedQPS float64

	Requests int // offered
	Served   int // completed within policy
	Shed     int // dropped by SLO shedding
	Batches  int // dispatched (non-empty) batches

	MeanBatch float64 // Served / Batches
	Makespan  float64 // first arrival to last completion
	// Throughput is served requests per second of makespan — the
	// sustained rate, saturating at the capacity ServiceTime implies.
	Throughput float64

	// Latency quantiles over served requests (arrival to batch
	// completion), nearest-rank on the sorted sample.
	P50, P95, P99, Max float64
	// Latencies holds every served request's latency, sorted ascending —
	// the sample the quantiles are read from.
	Latencies []float64

	// Preds, in functional runs, holds request k's click probability at
	// index k, NaN where the request was shed. Nil in timing-only runs.
	Preds []float32
}

// quantile reads the nearest-rank p-quantile from the sorted sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pending is one queued request.
type pending struct {
	id  int
	arr float64
}

// Run replays the configured request stream through the serving tier and
// returns its latency/throughput profile. Deterministic: the result is a
// pure function of the Config (workspace reuse and pool sharing included).
func Run(c Config) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ws := c.Workspaces
	if ws == nil {
		ws = NewWorkspaces()
	}
	s := c.newServer(ws)
	if !s.ws.inUse.CompareAndSwap(false, true) {
		return nil, errInUse
	}
	defer s.ws.inUse.Store(false)
	s.ws.prepare(c)
	res := &Result{Policy: c.Policy, OfferedQPS: c.OfferedQPS, Requests: c.Requests}

	if c.RunCfg != nil {
		pools := c.Pools
		if pools == nil {
			pools = cluster.NewPools()
			defer pools.Close()
		}
		s.preds = s.ws.replicas(c, pools, s.cc.ComputeCores())
		res.Preds = make([]float32, c.Requests)
		nan := float32(math.NaN())
		for i := range res.Preds {
			res.Preds[i] = nan
		}
	}

	queue := s.ws.queue[:0]
	repFree := s.ws.repFree
	lats := s.ws.lat[:0]
	batches := s.ws.batches[:0]
	var firstArr, lastDone float64
	servedSum := 0

	dispatch := func(t float64) {
		b := len(queue)
		// Least-loaded replica, lowest id on ties.
		r := 0
		for j := 1; j < c.Replicas; j++ {
			if repFree[j] < repFree[r] {
				r = j
			}
		}
		start := t
		if repFree[r] > start {
			start = repFree[r]
		}
		// SLO shedding: drop the arrival prefix that cannot finish in
		// time. Dropping shrinks the batch, which shrinks the service
		// time, so this is an increase-only fixed point on the drop
		// count; arrivals are ascending, so survivors form a suffix, and
		// the first survivor's deadline is every survivor's.
		d := 0
		if c.Policy.SLO > 0 {
			for d < b && start+s.service(r, b-d)-queue[d].arr > c.Policy.SLO {
				d++
			}
		}
		if bb := b - d; bb > 0 {
			done := start + s.service(r, bb)
			repFree[r] = done
			if done > lastDone {
				lastDone = done
			}
			res.Batches++
			servedSum += bb
			for _, q := range queue[d:] {
				lats = append(lats, done-q.arr)
			}
			batches = append(batches, batch{r, queue[d].id, queue[b-1].id + 1})
		}
		res.Shed += d
		queue = queue[:0]
	}

	arr := 0.0
	for i := 0; i < c.Requests; i++ {
		arr += interarrival(c.Seed, i, c.OfferedQPS)
		if i == 0 {
			firstArr = arr
		}
		// Deadlines that expired before this arrival fire first.
		for len(queue) > 0 && queue[0].arr+c.Policy.MaxWait <= arr {
			dispatch(queue[0].arr + c.Policy.MaxWait)
		}
		queue = append(queue, pending{i, arr})
		if len(queue) >= c.Policy.MaxBatch {
			dispatch(arr)
		} else if c.Policy.MaxWait == 0 {
			dispatch(arr)
		}
	}
	for len(queue) > 0 {
		dispatch(queue[0].arr + c.Policy.MaxWait)
	}

	s.ws.queue = queue
	s.ws.lat = lats
	s.ws.batches = batches
	if s.preds != nil {
		s.evaluate(res.Preds)
	}

	res.Served = servedSum
	if res.Batches > 0 {
		res.MeanBatch = float64(servedSum) / float64(res.Batches)
	}
	if lastDone > firstArr {
		res.Makespan = lastDone - firstArr
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Served) / res.Makespan
	}
	sort.Float64s(lats)
	res.Latencies = append([]float64(nil), lats...)
	res.P50 = quantile(lats, 0.50)
	res.P95 = quantile(lats, 0.95)
	res.P99 = quantile(lats, 0.99)
	if n := len(lats); n > 0 {
		res.Max = lats[n-1]
	}
	return res, nil
}

// batch is one served batch as dispatch decided it: replica r serves
// requests [k0, k1), samples k0..k1 of the one Requests-wide batch.
type batch struct{ r, k0, k1 int }

// evaluate computes the recorded batches' probabilities into preds, in
// dispatch order. A data.Prefetch ring over the workspace's two staging
// slots fills batch j+1's requests while this goroutine runs batch j: each
// shard owner's bag lookups into the serving replica's staging rows, then
// the replica's dense forward. Fills run in dispatch order and forwards one
// at a time, as a serial loop would run them, so every probability is the
// same bits; BN=1 replicas make it the same sample's probability through the
// full single-socket model, whatever batch it rode in. The ring is closed
// before evaluate returns, so a fill's panic and a forward's both come out
// here with the helper joined.
func (s *server) evaluate(preds []float32) {
	batches := s.ws.batches
	ring := data.NewPrefetch(s.ws.stage[:], len(batches), func(j int, mb *data.MiniBatch) {
		s.c.Dataset.FillRange(0, s.c.Requests, batches[j].k0, batches[j].k1, mb)
	})
	defer ring.Close()
	for _, b := range batches {
		mb := ring.Next()
		rows := s.preds[b.r].EmbOut(b.k1 - b.k0)
		for t := 0; t < s.c.Cfg.Tables; t++ {
			o := core.TableOwner(t, s.c.Replicas)
			s.preds[o].M.Tables[t].Forward(s.preds[o].Pool, mb.Sparse[t], rows[t])
		}
		s.preds[b.r].PredictDense(mb.Dense, rows, preds[b.k0:b.k1])
	}
}
