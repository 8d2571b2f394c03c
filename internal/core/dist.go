package core

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fabric"
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
	// artifact, or the sharded streaming pipeline. It only prices: in
	// functional mode every rank streams through the sharded pipeline
	// (the artifact's batches are the same bits, read at R times the cost).
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
	// the backward pass is layer-stepped, each MLP's gradients are carved
	// into per-layer buckets coalesced up to this many bytes
	// (paper-scale volumes), and every bucket's allreduce is issued the
	// moment its last layer's backward completes — labeled "ar-top" /
	// "ar-bot" — with the waits deferred per-bucket to that bucket's slice
	// of the SGD. The zero value selects the tuned DefaultBucketBytes
	// (bucketed is the default schedule); FlatBuckets keeps the flat per-MLP
	// buffers and the single "allreduce" label — the paper-reproduction
	// schedule the original figures measure.
	BucketBytes int
	// Contention selects the contention-aware fabric charging mode
	// (cluster.Config.Contention): concurrently in-flight collectives —
	// e.g. the up-to-3 bucket allreduces round-robining over CCL channels
	// 0-2 — split bottleneck-link bandwidth instead of each being priced
	// against an idle fabric. Off by default, so the committed virtual
	// baselines stay bit-identical; the contention experiments turn it on.
	Contention bool
	// Interference overrides the MPI compute-interference factor (≥ 1; 0 =
	// the backend default, 1.3). Two values are in use: the default, and 1
	// in the contention figure's §VI-D1 row, which isolates the flat-factor
	// artifact from the link-level mechanics. Ignored for CCL.
	Interference float64

	// EmbCacheBytes enables the tiered embedding parameter store
	// (internal/embstore): each rank fronts its owned table shard with a
	// hot-row cache of this many bytes while cold rows live behind a
	// modeled slower tier, opening the larger-than-memory table scenario.
	// Timing mode charges the analytic miss traffic — Zipf head mass of
	// the per-rank cache via embstore.HitRate — as a synchronous
	// "coldtier" fetch before the embedding forward and an asynchronous
	// "coldtier-wb" dirty write-back drained on the rank's background
	// stream (the checkpoint pattern); functional mode routes the
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
	// EmbSkew is the Zipf exponent the cold-tier charge assumes for lookup
	// traffic (0 = DefaultEmbSkew, the Criteo-like 1.05). Only meaningful
	// with EmbCacheBytes.
	EmbSkew float64

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
	// run self-contained (transient pool set, fresh workspaces). Only
	// functional ranks run kernels, so only a functional run reads Pools.
	// A caller repeating one run passes shared sets so worker goroutines
	// and buffers persist across runs: the benchmark's loops both,
	// autotune's timing probes Workspaces alone; a figure sweep neither.
	// The caller owning a shared Pools is responsible for closing it.
	Pools      *cluster.Pools
	Workspaces *DistWorkspaces

	// bucketChannels is how many CCL channels bucketed allreduces
	// round-robin over under the overlapped schedule: a prefix of
	// defaultBucketChannels, 0 for all of it. Only AutotuneDistConfig sets
	// it.
	bucketChannels int
	// seg places the run inside RunElastic's timeline; the zero value is a
	// standalone run without checkpoints.
	seg segment
}

// segment is one stretch of an elastic run, set only by RunElastic.
type segment struct {
	// startIter is the global iteration the run begins at: the functional
	// loaders start at this batch index and the checkpoint cadence counts
	// global iterations (startIter+i), so a run split into segments trains
	// on exactly the batches the unsegmented run would (the counter-based
	// data streams make any batch index re-materializable).
	startIter int
	// ckptEvery takes a periodic shard checkpoint every N global iterations:
	// each rank snapshots its MLP replica plus owned tables and drains the
	// write on its background stream (cluster.Rank.Async) at
	// DefaultCheckpointBW, so the write is exposed — a "checkpoint" stall —
	// only when it outlasts the following iterations' compute. At most one
	// write is in flight per rank: the next snapshot waits for the previous
	// drain. 0 disables checkpointing.
	ckptEvery int
	// sink, in functional mode, receives each rank's model at every
	// checkpoint boundary (iter = the global iteration count just
	// completed). It must serialize synchronously before returning — the
	// rank keeps training afterwards — and be safe for concurrent calls from
	// different rank goroutines.
	sink func(rank, iter int, m *Model)
	// restore, in functional mode, is invoked on each rank's freshly
	// initialized shard model before training starts; the elastic driver
	// loads the durable shard checkpoints here.
	restore func(rank int, m *Model)
}

// DefaultBucketBytes is the tuned gradient-allreduce bucket size the
// bucketed schedule coalesces layers up to when DistConfig.BucketBytes is
// zero — 64 MiB, the autotuner's pick at the headline Fig. 9/12 scales
// (Large's 4096-wide top layers land one per bucket, MLPerf's whole MLPs
// fold into one).
const DefaultBucketBytes = 64 << 20

// DefaultCheckpointBW is the modeled per-rank checkpoint drain and restore
// bandwidth — 2 GB/s, a burst-buffer/local-NVMe figure for the CLX-era
// clusters of the paper.
const DefaultCheckpointBW = 2e9

// DefaultColdTierBW is the conventional cold-tier streaming bandwidth the
// flag defaults and figure fixtures use — 8 GB/s, a PMEM/NVMe-over-fabric
// figure for the CLX era. DistConfig has no implicit fallback: a tiered run
// must set ColdTierBW explicitly (Validate rejects EmbCacheBytes without
// it), so configs state the tier they are pricing.
const DefaultColdTierBW = 8e9

// DefaultColdTierLat is the modeled cold-tier access latency per iteration
// (per batch, in serving) — 20 µs, one round of batched misses.
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

// run executes an already-validated configuration (DistConfig.Run is the
// public entry and the only caller). A timing run has no kernel to run, so
// the evaluator walks the plan for all ranks at once on the caller's
// goroutine. Functional ranks run on cluster.Run's goroutines, which overlap
// each rank's model build, payload copies and serial kernel sections across
// host cores (docs/PERF.md, "Why functional runs keep the goroutine
// engine").
func (dc DistConfig) run() *DistResult { return dc.runOn(dc.RunCfg == nil) }

// ClusterConfig is the simulated machine the run's ranks execute on (the
// serving tier prices its replicas on it too).
func (dc *DistConfig) ClusterConfig() cluster.Config {
	return cluster.Config{
		Ranks:        dc.Ranks,
		Topo:         dc.Topo,
		Socket:       dc.Socket,
		Backend:      dc.Variant.Backend,
		Blocking:     dc.Blocking,
		CommCores:    dc.CommCores,
		Contention:   dc.Contention,
		Interference: dc.Interference,
		Pools:        dc.Pools, // nil ⇒ cluster.Run owns a transient set
	}
}

// runOn is run with the engine stated: the timing evaluator (plan.eval,
// timing mode only), or every rank interpreting the plan on cluster.Run's
// goroutines — tests hold the two to identical results. The iteration is
// built once, as a step list (buildPlan); a functional run attaches an
// executor to each rank that runs each step's kernel.
func (dc DistConfig) runOn(evaluate bool) *DistResult {
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
	p := dc.buildPlan()
	var ranks []*cluster.Rank
	if evaluate {
		ranks = cluster.NewRanks(dc.ClusterConfig())
		p.eval(ranks, comm.ForAll(ranks, dc.Topo), wss.timingSlots(dc.Ranks*p.slots))
	} else {
		ranks = make([]*cluster.Rank, dc.Ranks)
		cluster.Run(dc.ClusterConfig(), func(r *cluster.Rank) {
			ranks[r.ID] = r
			ws := wss.get(r.ID)
			ws.prepare(&dc, r.ID)
			var x *executor
			if dc.RunCfg != nil {
				x = newRankExecutor(&dc, r, ws, res)
				defer x.close()
			}
			p.run(r, comm.New(r, dc.Topo), ws.slots(p.slots), x)
		})
	}
	iters := float64(dc.Iters)
	var maxNow float64
	s := &wss.stats
	for _, r := range ranks {
		r.StatsInto(s)
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
