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
// on the virtual clock by the same perfmodel/fabric/cluster stack as
// training, so serving latencies and training iteration times are in the
// same currency — and, with Contention enabled, serving fan-ins contend
// for fabric links like any other in-flight transfer.
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
	"repro/internal/embstore"
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
	// Backend selects the communication backend personality: CCL pins
	// CommCores out of the compute budget and runs at full fabric speed
	// with enough workers; MPI keeps all cores for compute but pays the
	// 1.5x single-threaded-progress slowdown on transfers — the same
	// trade as training (cluster.Config.CommSlowdown).
	Backend cluster.Backend
	// CommCores overrides the backend's communication-core count
	// (0 = backend default, 4 for CCL).
	CommCores int
	// Contention charges each batch's embedding fan-in against the shared
	// contention epoch, so concurrent batches stretch each other on
	// shared links. Off by default: fan-ins are then priced in isolation
	// and results are bit-reproducible run to run regardless of what else
	// the engine carried.
	Contention bool
	// EmbCacheBytes prices each replica's shard pulls through the tiered
	// embedding parameter store (internal/embstore): the Zipf head of the
	// lookup volume — the analytic hit rate of a per-replica cache this
	// many bytes large — streams at socket speed, the cold tail pays the
	// cold tier's latency (core.DefaultColdTierLat per batch) and bandwidth.
	// The same knob set as
	// core.DistConfig; 0 keeps today's all-in-RAM pricing, bit-identical.
	// When set, ColdTierBW must be set too.
	EmbCacheBytes int
	// ColdTierBW is the modeled cold-tier streaming bandwidth in bytes/s.
	// Only meaningful with EmbCacheBytes (core.DefaultColdTierBW is the
	// conventional value).
	ColdTierBW float64
	// EmbSkew is the Zipf exponent of the request traffic the hit rate is
	// computed under (0 = core.DefaultEmbSkew). Only meaningful with
	// EmbCacheBytes.
	EmbSkew float64

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
	if c.Replicas < 1 {
		return fmt.Errorf("serve: Replicas %d, need at least 1", c.Replicas)
	}
	if max := c.Cfg.MaxRanks(); c.Replicas > max {
		return fmt.Errorf("serve: %d replicas but %s shards at most %d ways (one table per replica minimum)", c.Replicas, c.Cfg.Name, max)
	}
	if c.Replicas > 1 {
		if c.Topo == nil {
			return fmt.Errorf("serve: %d replicas need a fabric topology for the embedding fan-in", c.Replicas)
		}
		if n := c.Topo.NumSockets(); n < c.Replicas {
			return fmt.Errorf("serve: topology %s has %d sockets, fewer than %d replicas", c.Topo.Name(), n, c.Replicas)
		}
	}
	if c.Backend != cluster.MPIBackend && c.Backend != cluster.CCLBackend {
		return fmt.Errorf("serve: unknown backend %v", c.Backend)
	}
	if c.CommCores < 0 {
		return fmt.Errorf("serve: negative CommCores %d", c.CommCores)
	}
	if s := c.Socket; s.Cores < 1 || !(s.PeakFlops > 0 && s.MemBW > 0 && s.GemmEff > 0 && s.EmbedEff > 0) {
		return fmt.Errorf("serve: Socket %+v: Cores, PeakFlops, MemBW, GemmEff and EmbedEff must all be positive", s)
	}
	if cc := c.clusterConfig(); cc.CommCores >= c.Socket.Cores {
		return fmt.Errorf("serve: CommCores %d leaves no compute cores on a %d-core socket", cc.CommCores, c.Socket.Cores)
	}
	if c.EmbCacheBytes < 0 {
		return fmt.Errorf("serve: EmbCacheBytes=%d, want >= 0", c.EmbCacheBytes)
	}
	if c.ColdTierBW < 0 {
		return fmt.Errorf("serve: ColdTierBW=%v, want >= 0", c.ColdTierBW)
	}
	if c.EmbSkew < 0 {
		return fmt.Errorf("serve: EmbSkew=%v, want >= 0", c.EmbSkew)
	}
	if c.EmbCacheBytes > 0 && c.ColdTierBW == 0 {
		return fmt.Errorf("serve: EmbCacheBytes set without ColdTierBW — a tiered store needs a cold-tier bandwidth")
	}
	if c.EmbCacheBytes == 0 {
		if c.ColdTierBW != 0 {
			return fmt.Errorf("serve: ColdTierBW set without EmbCacheBytes — no tiered store to price")
		}
		if c.EmbSkew != 0 {
			return fmt.Errorf("serve: EmbSkew set without EmbCacheBytes — no tiered store to model")
		}
	}
	if c.Policy.MaxBatch < 1 {
		return fmt.Errorf("serve: Policy.MaxBatch %d, need at least 1", c.Policy.MaxBatch)
	}
	if c.Policy.MaxWait < 0 {
		return fmt.Errorf("serve: negative Policy.MaxWait %g", c.Policy.MaxWait)
	}
	if c.Policy.SLO < 0 {
		return fmt.Errorf("serve: negative Policy.SLO %g", c.Policy.SLO)
	}
	if !(c.OfferedQPS > 0) {
		return fmt.Errorf("serve: OfferedQPS %g, need > 0", c.OfferedQPS)
	}
	if c.Requests < 1 {
		return fmt.Errorf("serve: Requests %d, need at least 1", c.Requests)
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

// clusterConfig resolves the backend personality the cost model prices
// with (defaults applied).
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{
		Ranks:      c.Replicas,
		Topo:       c.Topo,
		Socket:     c.Socket,
		Backend:    c.Backend,
		CommCores:  c.CommCores,
		Contention: c.Contention,
	}.WithDefaults()
}

// costModel prices one batch's service on a replica. All durations are
// virtual seconds.
type costModel struct {
	cc       cluster.Config
	cores    int
	slow     float64 // backend transfer slowdown, applied to the fan-in
	bot, top []int
	inter    float64 // interaction flops per sample
	lookups  int
	embDim   int
	owned    []int // tables owned per replica (round-robin)
	maxOwned int

	// Tiered embedding store pricing (Config.EmbCacheBytes): the hit
	// fraction of the busiest owner's lookup volume streams at socket
	// speed, the rest pays the cold tier.
	tiered bool
	hit    float64
	coldBW float64
}

func (c Config) newCostModel() costModel {
	cc := c.clusterConfig()
	cm := costModel{
		cc:      cc,
		cores:   cc.ComputeCores(),
		slow:    cc.CommSlowdown(),
		bot:     c.Cfg.BotSizes(),
		top:     c.Cfg.TopSizes(),
		lookups: c.Cfg.Lookups,
		embDim:  c.Cfg.EmbDim,
		owned:   make([]int, c.Replicas),
	}
	s := float64(c.Cfg.Tables)
	cm.inter = (s + 1) * s / 2 * 2 * float64(c.Cfg.EmbDim)
	for t := 0; t < c.Cfg.Tables; t++ {
		cm.owned[core.TableOwner(t, c.Replicas)]++
	}
	for _, n := range cm.owned {
		if n > cm.maxOwned {
			cm.maxOwned = n
		}
	}
	if c.EmbCacheBytes > 0 {
		cm.tiered = true
		cm.coldBW = c.ColdTierBW
		skew := c.EmbSkew
		if skew == 0 {
			skew = core.DefaultEmbSkew
		}
		// The busiest owner paces the lookup phase; its tables' head mass
		// under the per-replica budget is the hit rate the split prices.
		busiest := 0
		for o, n := range cm.owned {
			if n == cm.maxOwned {
				busiest = o
				break
			}
		}
		var rows []int
		for t := 0; t < c.Cfg.Tables; t++ {
			if core.TableOwner(t, c.Replicas) == busiest {
				rows = append(rows, c.Cfg.Rows[t])
			}
		}
		cm.hit = embstore.HitRate(c.EmbCacheBytes, c.Cfg.EmbDim, rows, skew)
	}
	return cm
}

// lookupTime is the shard-owner phase: the busiest owner streams its bag
// lookups for b samples (owners work concurrently, so the max paces it).
// Under the tiered store the Zipf head streams from the hot cache at
// socket speed while the cold tail pays the cold tier's latency and
// bandwidth — cache hits vs cold-tier misses, priced per batch.
func (cm *costModel) lookupTime(b int) float64 {
	bytes := perfmodel.EmbeddingFwdBytes(cm.maxOwned, b, cm.lookups, cm.embDim)
	if !cm.tiered {
		return cm.cc.Socket.StreamTime(bytes, cm.cores)
	}
	return cm.cc.Socket.StreamTime(bytes*cm.hit, cm.cores) +
		core.DefaultColdTierLat + bytes*(1-cm.hit)/cm.coldBW
}

// mlpTime is the dense forward on the serving replica: bottom MLP,
// interaction, top MLP for b samples. GemmTimeN's batch-dependent GEMM
// efficiency is what makes per-sample service time shrink with batch size
// — the entire reason the dispatcher batches.
func (cm *costModel) mlpTime(b int) float64 {
	flops := perfmodel.MLPPassFlops(cm.bot, b) + perfmodel.MLPPassFlops(cm.top, b) +
		cm.inter*float64(b)
	bytes := perfmodel.MLPPassBytes(cm.bot, b) + perfmodel.MLPPassBytes(cm.top, b)
	return cm.cc.Socket.GemmTimeN(flops, bytes, cm.cores, b)
}

// placeFanIn fills perSrc with the bytes each remote shard owner sends the
// serving replica r for a b-sample batch: its owned tables' bag outputs,
// b·E floats per table.
func (cm *costModel) placeFanIn(r, b int, perSrc []float64) {
	for o := range perSrc {
		if o == r || o >= len(cm.owned) {
			perSrc[o] = 0
			continue
		}
		perSrc[o] = float64(cm.owned[o]) * float64(b) * float64(cm.embDim) * 4
	}
}

// server is one Run's live state: cost model, fan-in pricer, contention
// engine, and (functionally) the replica predictors.
type server struct {
	c   Config
	cm  costModel
	ws  *Workspaces
	eng *cluster.Engine

	preds []*core.Predictor // functional replicas, nil in timing-only runs
}

// serviceIso prices a b-sample batch on replica r in isolation (no
// contention epoch): framework call, shard lookups, fabric fan-in, dense
// forward. Used for the shedding fixed point and by ServiceTime.
func (s *server) serviceIso(r, b int) float64 {
	pre := s.cm.cc.CallOverhead + s.cm.lookupTime(b)
	fetch := 0.0
	if s.c.Replicas > 1 {
		s.cm.placeFanIn(r, b, s.ws.perSrc)
		fetch = s.ws.fanin.Time(r, s.ws.perSrc) * s.cm.slow
	}
	return pre + fetch + s.cm.mlpTime(b)
}

// service prices the batch for real, registering the fan-in on the
// contention epoch at its actual start time. With Contention off this is
// exactly serviceIso.
func (s *server) service(r, b int, start float64) float64 {
	pre := s.cm.cc.CallOverhead + s.cm.lookupTime(b)
	fetch := 0.0
	if s.c.Replicas > 1 {
		s.cm.placeFanIn(r, b, s.ws.perSrc)
		fetch = s.ws.fanin.TimeOn(s.eng, r, s.ws.perSrc, start+pre) * s.cm.slow
	}
	return pre + fetch + s.cm.mlpTime(b)
}

// ServiceTime returns the isolated service time of one b-sample batch on
// the worst-placed replica: the latency floor a request in a b-batch pays,
// and the capacity anchor (peak throughput ≈ Replicas·b/ServiceTime(b)).
// Drivers use it to derive SLOs and offered-load sweeps from the config
// itself. It allocates; it is not for the event loop.
func (c Config) ServiceTime(b int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	s := &server{c: c, cm: c.newCostModel(), ws: NewWorkspaces()}
	s.ws.prepare(c)
	worst := 0.0
	for r := 0; r < c.Replicas; r++ {
		if t := s.serviceIso(r, b); t > worst {
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
	s := &server{c: c, cm: c.newCostModel(), ws: c.Workspaces}
	if s.ws == nil {
		s.ws = NewWorkspaces()
	}
	if !s.ws.inUse.CompareAndSwap(false, true) {
		return nil, errInUse
	}
	defer s.ws.inUse.Store(false)
	s.ws.prepare(c)
	s.eng = cluster.NewEngine(c.clusterConfig())
	res := &Result{Policy: c.Policy, OfferedQPS: c.OfferedQPS, Requests: c.Requests}

	if c.RunCfg != nil {
		pools := c.Pools
		if pools == nil {
			pools = cluster.NewPools()
			defer pools.Close()
		}
		s.preds = s.ws.replicas(c, pools, s.cm.cores)
		res.Preds = make([]float32, c.Requests)
		nan := float32(math.NaN())
		for i := range res.Preds {
			res.Preds[i] = nan
		}
	}

	queue := s.ws.queue[:0]
	repFree := s.ws.repFree
	lats := s.ws.lat[:0]
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
		// count; arrivals are ascending, so survivors form a suffix.
		d := 0
		if c.Policy.SLO > 0 {
			for d < b {
				done := start + s.serviceIso(r, b-d)
				if done-queue[d].arr <= c.Policy.SLO {
					break
				}
				d++
			}
		}
		if bb := b - d; bb > 0 {
			done := start + s.service(r, bb, start)
			// Contention can stretch the real fan-in past the isolated
			// estimate; requests the stretch pushed over the deadline are
			// dropped after the fact (the transfer already happened —
			// only the answer is discarded).
			if c.Policy.SLO > 0 {
				for d < b && done-queue[d].arr > c.Policy.SLO {
					d++
				}
			}
			repFree[r] = done
			if done > lastDone {
				lastDone = done
			}
			if bb = b - d; bb > 0 {
				res.Batches++
				servedSum += bb
				for _, q := range queue[d:] {
					lats = append(lats, done-q.arr)
				}
				if s.preds != nil {
					s.evalBatch(r, queue[d].id, queue[b-1].id+1, res.Preds)
				}
			}
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

// evalBatch computes probabilities for requests [k0, k1) (samples k0..k1 of
// the one Requests-wide batch) on replica r: each shard owner runs its own
// tables' bag lookups into the serving replica's staging rows, then the
// replica runs the dense forward. BN=1 replicas make every probability
// bit-identical to the same sample through the full single-socket model,
// whatever batch it rode in.
func (s *server) evalBatch(r, k0, k1 int, preds []float32) {
	rep := s.ws.reps[r]
	bb := k1 - k0
	s.c.Dataset.FillRange(0, s.c.Requests, k0, k1, &rep.mb)
	rows := s.preds[r].EmbOut(bb)
	for t := 0; t < s.c.Cfg.Tables; t++ {
		o := core.TableOwner(t, s.c.Replicas)
		s.preds[o].M.Tables[t].Forward(s.preds[o].Pool, rep.mb.Sparse[t], rows[t])
	}
	out := rep.out[:bb]
	s.preds[r].PredictDense(rep.mb.Dense, rows, out)
	copy(preds[k0:k1], out)
}
