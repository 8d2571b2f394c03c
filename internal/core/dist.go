package core

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/embstore"
	"repro/internal/fabric"
	"repro/internal/loss"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

// CommStrategy selects how embedding outputs switch from model to data
// parallelism at the interaction op (§IV-B).
type CommStrategy int

const (
	// ScatterList issues one scatter per embedding table — the original
	// multi-device DLRM pattern, many small backend calls.
	ScatterList CommStrategy = iota
	// FusedScatter coalesces each rank's local tables into one buffer and
	// issues one scatter per rank.
	FusedScatter
	// Alltoall uses the single native all-to-all collective.
	Alltoall
)

// String returns the paper's label.
func (s CommStrategy) String() string {
	switch s {
	case ScatterList:
		return "ScatterList"
	case FusedScatter:
		return "Fused Scatter"
	case Alltoall:
		return "Alltoall"
	default:
		return fmt.Sprintf("CommStrategy(%d)", int(s))
	}
}

// Variant couples a communication strategy with a backend — the four lines
// of Figs. 9/12.
type Variant struct {
	Strategy CommStrategy
	Backend  cluster.Backend
}

// Name returns the figure legend label (e.g. "CCL Alltoall").
func (v Variant) Name() string {
	prefix := "MPI"
	if v.Backend == cluster.CCLBackend {
		prefix = "CCL"
	}
	return prefix + " " + v.Strategy.String()
}

// Variants lists the four evaluated combinations in figure order.
var Variants = []Variant{
	{ScatterList, cluster.MPIBackend},
	{FusedScatter, cluster.MPIBackend},
	{Alltoall, cluster.MPIBackend},
	{Alltoall, cluster.CCLBackend},
}

// loaderPerSample is the per-sample cost of the framework data loader
// (§VI-D2), calibrated so 26 ranks × LN=2048 adds ≈20 ms as in Fig. 13
// under the global-read artifact.
const loaderPerSample = 400e-9

// LoaderMode selects how the data loader's cost — and, in functional mode,
// its actual execution — is modeled per rank.
type LoaderMode int

const (
	// LoaderNone does not model the dataset read (the paper's Small/Large
	// runs, where loading is negligible).
	LoaderNone LoaderMode = iota
	// LoaderGlobalMB is the §VI-D2 artifact: every rank reads the FULL
	// global minibatch, so loading grows with rank count under weak
	// scaling (the paper's MLPerf runs have it; Fig. 13's compute growth).
	LoaderGlobalMB
	// LoaderSharded is the fixed pipeline: every rank reads only its N/R
	// sample slice plus its owned tables' full-batch index columns —
	// ≈2 shares of the global batch, constant in rank count.
	LoaderSharded
)

// String returns the mode's experiment label.
func (m LoaderMode) String() string {
	switch m {
	case LoaderNone:
		return "none"
	case LoaderGlobalMB:
		return "global-read"
	case LoaderSharded:
		return "sharded"
	default:
		return fmt.Sprintf("LoaderMode(%d)", int(m))
	}
}

// DistConfig describes one distributed DLRM run.
type DistConfig struct {
	Cfg     Config // paper-scale config: drives all modeled times/volumes
	Ranks   int
	GlobalN int
	Iters   int

	Variant  Variant
	Blocking bool
	Topo     fabric.Topology
	Socket   perfmodel.Socket
	// CommCores overrides the number of cores dedicated to communication
	// (0 = backend default: 4 for CCL, none for MPI). The §IV-A tuning knob S.
	CommCores int
	// Loader selects the data-pipeline model: none, the §VI-D2 global-read
	// artifact, or the sharded streaming pipeline. In functional mode it
	// also selects which real loader feeds the ranks (LoaderNone trains
	// through the sharded pipeline without charging for it).
	Loader LoaderMode
	// Sync selects the paper's instrumented synchronous schedule: backward
	// redistribution waited where issued, loader charged serially, label-hash
	// channel placement. The zero value runs the overlap-aware pipeline
	// (§IV-A, §VI-D) — the best known schedule, and the default since the
	// bucketed+overlapped flip: the backward embedding redistribution is
	// issued as soon as the interaction backward produces its gradients and
	// waited only at the embedding update, the loader's per-iteration charge
	// runs on the background prefetch stream hidden behind the previous
	// iteration's compute, and concurrent collectives are pinned to distinct
	// CCL channels.
	Sync bool
	// Allreduce selects the MLP-gradient allreduce algorithm's cost model
	// (data movement is identical). The zero value is the ring
	// reduce-scatter+all-gather the paper's tuned runs use; AllreduceAuto
	// picks the cost-model minimum per allreduce (per bucket, under the
	// bucketed schedule).
	Allreduce comm.AllreduceAlgo
	// BucketBytes sizes the per-layer bucketed gradient allreduce of Fig. 2:
	// the backward pass is layer-stepped, each MLP's flat gradient buffer is
	// carved into per-layer buckets coalesced up to this many bytes
	// (paper-scale volumes), and every bucket's allreduce is issued the
	// moment its last layer's backward completes — labeled "ar-top" /
	// "ar-bot" — with the waits deferred per-bucket to that bucket's slice
	// of the SGD. The zero value selects the tuned DefaultBucketBytes
	// (bucketed is the default schedule); FlatBuckets keeps the flat per-MLP
	// buffers and the single "allreduce" label — the paper-reproduction
	// schedule the original figures measure.
	BucketBytes int
	// BucketChannels is the CCL channel set bucketed allreduces round-robin
	// over under Overlap, keeping several buckets in flight on distinct
	// FIFOs. Nil selects channels 0-2: the forward-alltoall channel (idle
	// during the backward) plus the flat schedule's two allreduce channels;
	// the backward alltoall keeps channel 3 to itself. Ignored without
	// Overlap (label-hash placement, like the sync schedule's collectives)
	// and on MPI, which has a single in-order channel.
	BucketChannels []int
	// Contention selects the contention-aware fabric charging mode
	// (cluster.Config.Contention): concurrently in-flight collectives —
	// e.g. the up-to-3 bucket allreduces round-robining over CCL channels
	// 0-2 — split bottleneck-link bandwidth instead of each being priced
	// against an idle fabric. Off by default, so the committed virtual
	// baselines stay bit-identical; the contention experiments turn it on.
	Contention bool
	// Interference overrides the MPI compute-interference factor (≥ 1; 0 =
	// the backend default, 1.3). The §VI-D1 figure sets it to 1 to isolate
	// the flat-factor artifact from the link-level mechanics. Ignored for
	// CCL.
	Interference float64

	// EmbCacheBytes enables the tiered embedding parameter store
	// (internal/embstore): each rank fronts its owned table shard with a
	// hot-row cache of this many bytes while cold rows live behind a
	// modeled slower tier, opening the larger-than-memory table scenario.
	// Timing mode charges the analytic miss traffic — Zipf head mass of
	// the per-rank cache via embstore.HitRate — as a synchronous
	// "coldtier" fetch before the embedding forward and an asynchronous
	// "coldtier-wb" dirty write-back drained on the rank's background
	// stream (the CheckpointBW pattern); functional mode routes the
	// embedding forward and SGD write-back through a real embstore.Store,
	// bit-identical to the in-RAM path. 0 disables tiering entirely —
	// today's all-in-RAM behavior, bit-identical to the committed virtual
	// baselines. When set, ColdTierBW must be set too.
	EmbCacheBytes int
	// ColdTierBW is the modeled cold-tier streaming bandwidth in bytes/s
	// (DefaultColdTierBW is the conventional value; there is no implicit
	// default — a tiered run must state its cold tier). Only meaningful
	// with EmbCacheBytes.
	ColdTierBW float64
	// ColdTierLat is the modeled per-iteration cold-tier access latency in
	// seconds (0 = DefaultColdTierLat). Only meaningful with EmbCacheBytes.
	ColdTierLat float64
	// EmbSkew is the Zipf exponent the cold-tier charge assumes for lookup
	// traffic (0 = DefaultEmbSkew, the Criteo-like 1.05). Only meaningful
	// with EmbCacheBytes.
	EmbSkew float64

	// StartIter places this run inside a longer training timeline: the
	// functional loaders start at this global batch index and the
	// checkpoint cadence counts global iterations (StartIter+i), so a run
	// split into segments — the elastic driver's resume after a failure —
	// trains on exactly the batches the unsegmented run would (the
	// counter-based data streams make any batch index re-materializable).
	// Zero for a standalone run.
	StartIter int
	// CheckpointEvery takes a periodic shard checkpoint every N global
	// iterations: each rank snapshots its MLP replica plus owned tables and
	// drains the write on its background stream (cluster.Rank.Async) at
	// CheckpointBW, so the write is exposed — a "checkpoint" stall — only
	// when it outlasts the following iterations' compute. At most one write
	// is in flight per rank: the next snapshot waits for the previous
	// drain. 0 disables checkpointing (the default; the committed virtual
	// baselines carry no checkpoint charge).
	CheckpointEvery int
	// CheckpointBW is the modeled per-rank drain bandwidth to durable
	// storage in bytes/s (0 = DefaultCheckpointBW). Only meaningful with
	// CheckpointEvery.
	CheckpointBW float64
	// CheckpointSink, in functional mode, receives each rank's model at
	// every checkpoint boundary (iter = the global iteration count just
	// completed). The sink must serialize synchronously before returning —
	// the rank keeps training afterwards — and must be safe for concurrent
	// calls from different rank goroutines. Requires RunCfg.
	CheckpointSink func(rank, iter int, m *Model)
	// Restore, in functional mode, is invoked on each rank's freshly
	// initialized shard model before training starts — the elastic driver
	// loads the durable shard checkpoints here. Requires RunCfg.
	Restore func(rank int, m *Model)

	// Functional execution: when RunCfg is non-nil, every rank instantiates
	// a scaled model shard and really trains on Dataset (used by the
	// equivalence tests). Timing-only runs leave it nil.
	RunCfg  *Config
	Dataset data.Dataset
	Seed    int64
	LR      float32

	// Pools supplies the per-rank persistent compute pools (one per
	// simulated socket, sized to its compute cores) and Workspaces the
	// per-rank iteration buffers. Both are optional: a nil field makes the
	// run self-contained (transient pool set, fresh workspaces). Drivers
	// that issue many runs — figure sweeps, benchmarks — pass shared sets
	// so worker goroutines and buffers persist across runs. The caller
	// owning a shared Pools is responsible for closing it.
	Pools      *cluster.Pools
	Workspaces *DistWorkspaces
}

// DefaultBucketBytes is the tuned gradient-allreduce bucket size the
// bucketed schedule coalesces layers up to when DistConfig.BucketBytes is
// zero — 64 MiB, the autotuner's pick at the headline Fig. 9/12 scales
// (Large's 4096-wide top layers land one per bucket, MLPerf's whole MLPs
// fold into one).
const DefaultBucketBytes = 64 << 20

// DefaultCheckpointBW is the modeled per-rank checkpoint drain bandwidth
// when DistConfig.CheckpointBW is zero — 2 GB/s, a burst-buffer/local-NVMe
// figure for the CLX-era clusters of the paper.
const DefaultCheckpointBW = 2e9

// DefaultColdTierBW is the conventional cold-tier streaming bandwidth the
// flag defaults and figure fixtures use — 8 GB/s, a PMEM/NVMe-over-fabric
// figure for the CLX era. DistConfig has no implicit fallback: a tiered run
// must set ColdTierBW explicitly (Validate rejects EmbCacheBytes without
// it), so configs state the tier they are pricing.
const DefaultColdTierBW = 8e9

// DefaultColdTierLat is the per-iteration cold-tier access latency when
// DistConfig.ColdTierLat is zero — 20 µs, one round of batched misses.
const DefaultColdTierLat = 20e-6

// DefaultEmbSkew is the Zipf exponent the cold-tier charge assumes when
// DistConfig.EmbSkew is zero — 1.05, the Criteo-like skew of the MLPerf
// logs (data.NewClickLog's default).
const DefaultEmbSkew = 1.05

// shardCheckpointBytes is the serialized size of rank r's shard checkpoint
// at paper scale: its full MLP replica plus the embedding tables it owns
// under TableOwner. (Format framing — lengths, header, CRC — is noise at
// these volumes and is not charged.)
func shardCheckpointBytes(cfg Config, rank, ranks int) float64 {
	n := mlpParamBytes(cfg.BotSizes()) + mlpParamBytes(cfg.TopSizes())
	for t := 0; t < cfg.Tables; t++ {
		if TableOwner(t, ranks) == rank {
			n += float64(cfg.Rows[t]) * float64(cfg.EmbDim) * 4
		}
	}
	return n
}

// maxShardCheckpointBytes is the largest per-rank shard checkpoint at the
// given rank count — the volume that bounds restore time, since survivors
// re-read every shard blob in parallel and the slowest read gates restart.
func maxShardCheckpointBytes(cfg Config, ranks int) float64 {
	var m float64
	for r := 0; r < ranks; r++ {
		if b := shardCheckpointBytes(cfg, r, ranks); b > m {
			m = b
		}
	}
	return m
}

// FlatBuckets disables gradient-allreduce bucketing: one flat allreduce per
// MLP under the single "allreduce" label, the paper-reproduction schedule
// the original figures measure. (BucketBytes = 0 means the tuned default,
// not flat, since the bucketed+overlapped flip.)
const FlatBuckets = -1

// Overlapped reports whether the run uses the overlap-aware schedule (the
// default; Sync selects the instrumented synchronous one).
func (dc *DistConfig) Overlapped() bool { return !dc.Sync }

// EffectiveBucketBytes resolves the BucketBytes knob: the tuned default for
// the zero value, 0 (flat) for FlatBuckets, the explicit size otherwise.
func (dc *DistConfig) EffectiveBucketBytes() int {
	switch {
	case dc.BucketBytes == 0:
		return DefaultBucketBytes
	case dc.BucketBytes < 0:
		return 0
	default:
		return dc.BucketBytes
	}
}

// DistResult aggregates a run: virtual-time metrics (always) and the
// trained per-rank models (functional mode).
type DistResult struct {
	IterSeconds float64 // max over ranks of total virtual time / iters

	// Per-iteration averages over ranks, in seconds.
	ComputePerIter float64
	WaitPerIter    map[string]float64
	BusyPerIter    map[string]float64
	PrepPerIter    map[string]float64

	Stats  []cluster.Stats
	Models []*Model    // rank models (functional mode only)
	Losses [][]float64 // [rank][iter] local losses (functional mode only)
}

// MeanLosses reduces the per-rank loss curves to one loss per iteration —
// the mean over ranks, which (with the 1/globalN gradient scaling) is the
// global-batch loss an equivalent single-socket run reports. Nil in
// timing-only mode.
func (r *DistResult) MeanLosses() []float64 {
	if len(r.Losses) == 0 || r.Losses[0] == nil {
		return nil
	}
	out := make([]float64, len(r.Losses[0]))
	for _, ls := range r.Losses {
		for i, l := range ls {
			out[i] += l
		}
	}
	for i := range out {
		out[i] /= float64(len(r.Losses))
	}
	return out
}

// TotalCommPerIter returns the exposed communication time per iteration.
func (r *DistResult) TotalCommPerIter() float64 {
	return cluster.AddByLabel(0, r.WaitPerIter)
}

// Exposure decomposes one collective label's per-iteration time: Busy is
// the raw in-flight duration the cost models charged, Exposed the part the
// compute stream actually stalled on, and Hidden the part overlapped behind
// compute — the "how much communication is hidden" figure of §IV-A/§VI-D.
// Exposed can exceed Busy when per-channel FIFO queueing delays an
// operation's start beyond its issue point; Hidden is clamped at zero.
type Exposure struct {
	Label   string
	Busy    float64
	Exposed float64
	Hidden  float64
}

// HiddenShare returns the fraction of the label's busy time hidden behind
// compute (0 when the label never went busy).
func (e Exposure) HiddenShare() float64 {
	if e.Busy <= 0 {
		return 0
	}
	return e.Hidden / e.Busy
}

// Exposures reports the per-label exposed-vs-hidden communication breakdown.
//
// Order contract: entries are sorted by Label in ascending lexicographic
// (byte-wise) order, one entry per label that appears in either per-iter
// map, with no duplicates. Callers may rely on this — drivers index and
// diff the listing across runs and schedules, and a fixed label list in a
// driver is exactly the bug this contract replaces (a schedule that emits
// different labels, e.g. bucketed "ar-top:0..n" vs flat "allreduce", would
// silently print zeros). Labels that only ever waited (e.g. a barrier)
// appear with zero busy time. The order is pinned by a test.
func (r *DistResult) Exposures() []Exposure {
	labels := make([]string, 0, len(r.BusyPerIter)+len(r.WaitPerIter))
	for l := range r.BusyPerIter {
		labels = append(labels, l)
	}
	for l := range r.WaitPerIter {
		if _, ok := r.BusyPerIter[l]; !ok {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	out := make([]Exposure, 0, len(labels))
	for _, l := range labels {
		e := Exposure{Label: l, Busy: r.BusyPerIter[l], Exposed: r.WaitPerIter[l]}
		if e.Hidden = e.Busy - e.Exposed; e.Hidden < 0 {
			e.Hidden = 0
		}
		out = append(out, e)
	}
	return out
}

// funcState holds the real-execution state of one rank; the reusable
// buffers (including the flat MLP gradients) live in the rank's
// DistWorkspace and the data pipeline's staging buffers behind loader.
type funcState struct {
	model  *Model
	pool   *par.Pool
	cfg    Config // scaled config
	shardN int
	loader data.Loader
}

// run executes an already-validated configuration (DistConfig.Run is the
// public entry and the only caller). Functional ranks run kernels and
// loaders, which must overlap across host cores, so they get the cluster's
// goroutine engine; timing-mode ranks only advance clocks and take turns on
// the lockstep engine.
func (dc DistConfig) run() *DistResult { return dc.runOn(dc.RunCfg != nil) }

// runOn is run with the cluster engine stated (cluster.Config.Parallel) —
// tests use it to hold the two engines to identical results.
func (dc DistConfig) runOn(parallel bool) *DistResult {
	res := &DistResult{
		WaitPerIter: map[string]float64{},
		BusyPerIter: map[string]float64{},
		PrepPerIter: map[string]float64{},
		Models:      make([]*Model, dc.Ranks),
		Losses:      make([][]float64, dc.Ranks),
	}
	wss := dc.Workspaces
	if wss == nil {
		wss = NewDistWorkspaces()
	}
	ccfg := cluster.Config{
		Ranks:        dc.Ranks,
		Topo:         dc.Topo,
		Socket:       dc.Socket,
		Backend:      dc.Variant.Backend,
		Blocking:     dc.Blocking,
		CommCores:    dc.CommCores,
		Contention:   dc.Contention,
		Interference: dc.Interference,
		Pools:        dc.Pools, // nil ⇒ cluster.Run owns a transient set
		Parallel:     parallel,
	}
	stats := cluster.Run(ccfg, func(r *cluster.Rank) {
		dc.rankBody(r, wss.get(r.ID), res)
	})
	res.Stats = stats
	iters := float64(dc.Iters)
	var maxNow float64
	for _, s := range stats {
		// The rank's final clock, rebuilt from its accounting in a fixed
		// (label) order so the result is bit-reproducible.
		now := cluster.AddByLabel(s.Compute+s.TotalWait(), s.Prep)
		if now > maxNow {
			maxNow = now
		}
		res.ComputePerIter += s.Compute / iters / float64(dc.Ranks)
		for k, v := range s.Wait {
			res.WaitPerIter[k] += v / iters / float64(dc.Ranks)
		}
		for k, v := range s.CommBusy {
			res.BusyPerIter[k] += v / iters / float64(dc.Ranks)
		}
		for k, v := range s.Prep {
			res.PrepPerIter[k] += v / iters / float64(dc.Ranks)
		}
	}
	res.IterSeconds = maxNow / iters
	return res
}

// rankBody is the SPMD program every rank executes. All reusable iteration
// state lives in ws; compute kernels run on the rank's persistent pool.
func (dc DistConfig) rankBody(r *cluster.Rank, ws *DistWorkspace, res *DistResult) {
	cm := comm.New(r, dc.Topo)
	cfg := dc.Cfg
	ranks := dc.Ranks
	shardN := dc.GlobalN / ranks
	ws.prepare(&dc, r.ID)
	locT := ws.locT
	maxLoc := MaxLocalTables(cfg, ranks)
	cores := r.ComputeCores()
	sock := dc.Socket

	var fn *funcState
	if dc.RunCfg != nil {
		m := NewModelShard(*dc.RunCfg, mlpBlockFor(shardN), dc.Seed, r.ID, ranks)
		fn = &funcState{
			model:  m,
			pool:   r.Pool(),
			cfg:    *dc.RunCfg,
			shardN: shardN,
		}
		ws.bindGrads(m)
		if dc.Restore != nil {
			dc.Restore(r.ID, m)
		}
		res.Models[r.ID] = m
		// Every rank owns a data loader over its slice of the dataset. The
		// staging buffers live in the rank's workspace, so successive runs
		// refill the same memory; the loader objects themselves are cheap
		// and per-run. LoaderGlobalMB executes the real artifact (full
		// global read + shard copy); everything else streams the sharded
		// pipeline.
		lc := data.LoaderConfig{
			DS: dc.Dataset, GlobalN: dc.GlobalN,
			Rank: r.ID, Ranks: ranks, Owned: locT,
			Start:   dc.StartIter,
			Buffers: &ws.loaderBufs,
		}
		if dc.Loader == LoaderGlobalMB {
			fn.loader = data.NewGlobalReadLoader(lc)
		} else {
			fn.loader = data.NewShardedLoader(lc)
		}
		defer fn.loader.Close()
	}

	// Modeled per-pass times from the paper-scale config.
	botFwd := sock.GemmTime(perfmodel.MLPPassFlops(cfg.BotSizes(), shardN),
		perfmodel.MLPPassBytes(cfg.BotSizes(), shardN), cores)
	topFwd := sock.GemmTime(perfmodel.MLPPassFlops(cfg.TopSizes(), shardN),
		perfmodel.MLPPassBytes(cfg.TopSizes(), shardN), cores)
	interFwd := sock.GemmTime(
		2*float64(shardN)*float64(cfg.InterDim()-cfg.EmbDim)*float64(cfg.EmbDim),
		8*float64(shardN)*float64(cfg.Tables+1)*float64(cfg.EmbDim), cores)
	embFwd := sock.StreamTime(perfmodel.EmbeddingFwdBytes(len(locT), dc.GlobalN, cfg.Lookups, cfg.EmbDim), cores)
	embUpd := sock.StreamTime(perfmodel.EmbeddingUpdBytes(len(locT), dc.GlobalN, cfg.Lookups, cfg.EmbDim), cores)
	sgdTime := sock.StreamTime(3*cfg.AllreduceBytes(), cores)

	// Modeled communication volumes (Table II / Eqs. 1-2).
	a2aBlockBytes := float64(maxLoc) * float64(shardN) * float64(cfg.EmbDim) * 4
	scatterBlockBytes := float64(shardN) * float64(cfg.EmbDim) * 4
	arBytesBot, arBytesTop := mlpParamBytes(cfg.BotSizes()), mlpParamBytes(cfg.TopSizes())

	// Per-iteration loader cost. The §VI-D2 artifact reads the FULL global
	// minibatch on every rank — O(N·R) cluster-wide; the sharded pipeline
	// reads only this rank's N/R sample slice plus its owned tables'
	// full-batch index columns — ≈2 shares, constant in R.
	var loaderCost float64
	switch dc.Loader {
	case LoaderGlobalMB:
		loaderCost = loaderPerSample * float64(dc.GlobalN)
	case LoaderSharded:
		ownedShare := float64(dc.GlobalN) * float64(len(locT)) / float64(cfg.Tables)
		loaderCost = loaderPerSample * (float64(shardN) + ownedShare)
	}

	// CCL channel plan: the overlapped pipeline pins each concurrently
	// in-flight collective to its own channel so the per-channel FIFO model
	// charges true contention; the sync schedule keeps label-hash placement.
	chFwd, chTop, chBot, chBwd := -1, -1, -1, -1
	if dc.Overlapped() {
		chFwd, chTop, chBot, chBwd = 0, 1, 2, 3
	}

	// Bucketed gradient allreduce (Fig. 2): carve the per-layer volumes into
	// buckets and derive the per-layer backward charges once per run; the
	// flat path (BucketBytes = FlatBuckets) never consults any of it.
	bucketed := dc.EffectiveBucketBytes() > 0
	if bucketed {
		dc.prepareBuckets(cm, ws, fn, cores, shardN, 2*topFwd, 2*botFwd)
	}

	// Periodic shard checkpoints: each boundary snapshots this rank's MLP
	// replica plus owned tables and drains the write on the background
	// stream at CheckpointBW. The Wait on the previous drain's handle keeps
	// at most one write in flight (a zero Handle's Wait is free), so an
	// interval shorter than the drain surfaces as a "checkpoint" stall.
	var ckptH cluster.Handle
	var ckptCost float64
	if dc.CheckpointEvery > 0 {
		bw := dc.CheckpointBW
		if bw == 0 {
			bw = DefaultCheckpointBW
		}
		ckptCost = shardCheckpointBytes(cfg, r.ID, ranks) / bw
	}

	// Tiered embedding parameter store (ROADMAP direction 2): with a cache
	// budget set, the Zipf tail of each iteration's lookups misses the
	// hot-row cache and goes to the modeled cold tier — a synchronous
	// "coldtier" fetch of the analytic miss volume before the embedding
	// forward, and a "coldtier-wb" dirty write-back of the same volume
	// drained on the background stream after the update (at most one in
	// flight: the checkpoint pattern). Functional mode routes table access
	// through a real embstore.Store whose cached path is bit-identical to
	// the in-RAM one, so the loss curve is unchanged.
	tiered := dc.EmbCacheBytes > 0 && len(locT) > 0
	var coldCost float64
	var coldWBH cluster.Handle
	var st *embstore.Store
	if tiered {
		lat := dc.ColdTierLat
		if lat == 0 {
			lat = DefaultColdTierLat
		}
		skew := dc.EmbSkew
		if skew == 0 {
			skew = DefaultEmbSkew
		}
		rows := make([]int, len(locT))
		for li, t := range locT {
			rows[li] = cfg.Rows[t]
		}
		hit := embstore.HitRate(dc.EmbCacheBytes, cfg.EmbDim, rows, skew)
		missBytes := (1 - hit) * float64(dc.GlobalN) * float64(cfg.Lookups) *
			float64(len(locT)) * float64(cfg.EmbDim) * 4
		coldCost = lat + missBytes/dc.ColdTierBW
		if fn != nil {
			owned := make([]*embedding.Table, len(locT))
			for li, t := range locT {
				owned[li] = fn.model.Tables[t]
			}
			var err error
			if st, err = embstore.New(dc.EmbCacheBytes, owned); err != nil {
				panic(err) // unreachable: a config has one EmbDim
			}
		}
	}

	// In the overlapped pipeline the loader is the real double-buffered
	// prefetch goroutine: batch 0's fetch starts at t=0 and is exposed once
	// (cold start); every later batch is fetched on the background stream
	// while the previous iteration computes, surfacing only when compute is
	// too short to cover it.
	var loaderH cluster.Handle
	if dc.Overlapped() && loaderCost > 0 {
		loaderH = r.Async("loader", loaderCost)
	}

	for it := 0; it < dc.Iters; it++ {
		// (0) data loader: wait for the prefetched batch (overlapped) or
		// charge the read serially (the paper's framework path).
		if loaderCost > 0 {
			if dc.Overlapped() {
				r.Wait(loaderH)
			} else {
				r.Prep("loader", loaderCost)
			}
		}
		var rb *data.RankBatch
		if fn != nil {
			rb = fn.loader.Next()
		}
		if dc.Overlapped() && loaderCost > 0 && it+1 < dc.Iters {
			// Start prefetching the next batch behind this iteration (none
			// after the last one, so busy time stays one charge per iter).
			loaderH = r.Async("loader", loaderCost)
		}

		// (1) Embedding forward for LOCAL tables over the GLOBAL minibatch
		// (model parallelism), into the workspace's per-table buffers. Under
		// the tiered store the cold tail is fetched first.
		if tiered {
			r.Prep("coldtier", coldCost)
		}
		r.Compute(embFwd)
		if fn != nil {
			for li, t := range locT {
				if st != nil {
					st.Forward(li, rb.Owned[li], ws.embFull[li])
				} else {
					fn.model.Tables[t].Forward(fn.pool, rb.Owned[li], ws.embFull[li])
				}
			}
		}

		// (2) Redistribute embedding outputs (model → data parallel).
		embOut, embHandles := dc.forwardRedistribute(cm, r, fn, ws, maxLoc, shardN, a2aBlockBytes, scatterBlockBytes, chFwd)

		// (3) Bottom MLP forward on the local shard (overlaps the alltoall:
		// the only compute that can hide it, §VI-D).
		r.Compute(botFwd)

		// (4) Consume embedding outputs: wait for the redistribution.
		for _, h := range embHandles {
			r.Wait(h)
		}

		// (5) Interaction + top MLP forward + loss.
		r.Compute(interFwd + topFwd)
		var dz []float32
		if fn != nil {
			lmb := rb.Local
			logits := fn.model.ForwardDense(fn.pool, lmb.Dense, embOut)
			dz = ws.dz
			l := loss.BCEWithLogits(logits, lmb.Labels, dz)
			res.Losses[r.ID] = append(res.Losses[r.ID], l)
			// Rescale from 1/localN to 1/globalN so the allreduce SUM of
			// MLP grads equals the single-socket global-batch gradient.
			scale := float32(shardN) / float32(dc.GlobalN)
			for i := range dz {
				dz[i] *= scale
			}
		}

		var hTop, hBot cluster.Handle
		if bucketed {
			// (6-8) Layer-stepped backward (Fig. 2): each gradient bucket's
			// allreduce is issued the moment its last layer's backward
			// completes, the backward redistribution launches right after
			// the interaction backward under Overlap (waited where issued
			// otherwise), and every bucket's wait is deferred to its slice
			// of the SGD below.
			dc.backwardBucketed(cm, r, fn, ws, cores, maxLoc, shardN,
				interFwd, a2aBlockBytes, scatterBlockBytes, chBwd)
		} else {
			// (6) Top MLP backward, then enqueue its gradient allreduce so it
			// overlaps the remaining backward work (§IV-A).
			r.Compute(2 * topFwd)
			var dEmb [][]float32
			if fn != nil {
				dEmb = fn.model.BackwardDense(fn.pool, dz)
				flattenGrads(fn.model.Top, ws.topGrad)
			}
			r.Prep("allreduce", sock.StreamTime(2*arBytesTop, cores))
			hTop = cm.AllreduceAlgoCost("allreduce", chTop, grad(fn, ws, true), false, arBytesTop, dc.Allreduce)

			if dc.Overlapped() {
				// (7) The interaction backward is what produces the embedding
				// gradients, so the backward redistribution can launch right
				// after it — before the bottom-MLP backward and before its
				// allreduce is enqueued — and the remaining backward compute
				// hides it. Waits are deferred to the latest consumer: the
				// redistribution at the embedding update (step 8), the
				// allreduces at the SGD (step 9).
				r.Compute(interFwd)
				dc.backwardRedistributeIssue(cm, r, fn, ws, maxLoc, shardN, dEmb, a2aBlockBytes, scatterBlockBytes, chBwd, false)
				r.Compute(2 * botFwd)
				if fn != nil {
					flattenGrads(fn.model.Bot, ws.botGrad)
				}
				r.Prep("allreduce", sock.StreamTime(2*arBytesBot, cores))
				hBot = cm.AllreduceAlgoCost("allreduce", chBot, grad(fn, ws, false), false, arBytesBot, dc.Allreduce)
				dc.backwardRedistributeFinish(r, fn, ws, shardN)
			} else {
				// (7) Interaction backward + bottom MLP backward, enqueue its
				// allreduce.
				r.Compute(interFwd + 2*botFwd)
				if fn != nil {
					flattenGrads(fn.model.Bot, ws.botGrad)
				}
				r.Prep("allreduce", sock.StreamTime(2*arBytesBot, cores))
				hBot = cm.AllreduceAlgoCost("allreduce", chBot, grad(fn, ws, false), false, arBytesBot, dc.Allreduce)

				// (8) Redistribute embedding gradients back to their owners
				// (data → model parallel) into ws.dOutFull, waited where issued
				// (the instrumented synchronous schedule).
				dc.backwardRedistribute(cm, r, fn, ws, maxLoc, shardN, dEmb, a2aBlockBytes, scatterBlockBytes)
			}
		}
		r.Compute(embUpd)
		if fn != nil {
			for li, t := range locT {
				tab := fn.model.Tables[t]
				ob := rb.Owned[li]
				dW := ensureF32(&ws.dW[li], ob.NumLookups()*tab.E)
				tab.Backward(fn.pool, ob, ws.dOutFull[li], dW)
				if st != nil {
					st.Update(li, ob, dW, dc.LR)
				} else {
					tab.Update(fn.pool, embedding.RaceFree, ob, dW, dc.LR)
				}
			}
		}
		if tiered {
			// Drain the dirty rows the update left behind to the cold tier
			// on the background stream; the previous iteration's drain must
			// finish first (one write in flight per rank).
			r.Wait(coldWBH)
			coldWBH = r.Async("coldtier-wb", coldCost)
		}

		// (9) Wait for the gradient allreduces and run the MLP SGD — bucket
		// by bucket under the bucketed schedule, so each bucket's slice of
		// the optimizer sweep runs while later buckets still drain.
		if bucketed {
			dc.sgdBucketed(r, fn, ws, cores)
		} else {
			r.Wait(hTop)
			r.Wait(hBot)
			r.Compute(sgdTime)
			if fn != nil {
				unflattenGradsAndStep(fn.model.Top, ws.topGrad, dc.LR)
				unflattenGradsAndStep(fn.model.Bot, ws.botGrad, dc.LR)
			}
		}

		// (10) Periodic shard checkpoint at global-iteration boundaries.
		if dc.CheckpointEvery > 0 && (dc.StartIter+it+1)%dc.CheckpointEvery == 0 {
			r.Wait(ckptH)
			if fn != nil && dc.CheckpointSink != nil {
				if st != nil {
					// The cached copies are authoritative; flush so the
					// checkpointed tables hold the untiered values.
					st.Flush()
				}
				dc.CheckpointSink(r.ID, dc.StartIter+it+1, fn.model)
			}
			ckptH = r.Async("checkpoint", ckptCost)
		}
	}
	if st != nil {
		// Settle the tables before the run's models are inspected: after
		// the flush they hold exactly the values the untiered path trains.
		st.Flush()
	}
	if bucketed {
		// Drop the rank/comm references the issue states captured: the
		// workspace outlives this run, and must not keep its cluster state
		// (Rank, Comm payload records, flow scratch) reachable.
		ws.topBS, ws.botBS = bucketState{}, bucketState{}
	}
}

// grad returns the flat gradient buffer for the allreduce (nil in
// timing-only mode).
func grad(fn *funcState, ws *DistWorkspace, top bool) []float32 {
	if fn == nil {
		return nil
	}
	if top {
		return ws.topGrad
	}
	return ws.botGrad
}

func mlpParamBytes(sizes []int) float64 {
	var n float64
	for i := 0; i+1 < len(sizes); i++ {
		n += float64(sizes[i]*sizes[i+1] + sizes[i+1])
	}
	return 4 * n
}

// mlpBlockFor picks a minibatch block size dividing the shard size.
func mlpBlockFor(n int) int {
	for _, b := range []int{16, 8, 4, 2, 1} {
		if n%b == 0 {
			return b
		}
	}
	return 1
}
