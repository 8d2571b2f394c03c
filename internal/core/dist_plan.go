package core

import (
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/embstore"
	"repro/internal/perfmodel"
)

// The distributed iteration is a step list. buildPlan turns a validated
// DistConfig into the ordered charges of one hybrid-parallel iteration
// (Fig. 2) — every schedule decision (sync or overlapped, flat or bucketed,
// strategy, loader mode, tiering, checkpoint cadence, channel placement,
// blocking waits) is resolved there, into list order. plan.run is the one
// interpreter: it walks the list step by step over a set of ranks — every
// rank of a timing run at once, or one functional rank on its own goroutine
// — applies each step through one charge switch (step.charge, step.issue)
// and books what it charged, by the step's label, into the rank's tally.
// docs/ITERATION.md prints the lists and states the float-order rules the
// builder must keep.

// stepKind is what a step charges: the cluster.Rank / comm.Comm call the
// interpreter makes for it.
type stepKind uint8

const (
	stepCompute    stepKind = iota // Rank.Compute(seconds)
	stepPrep                       // Rank.Prep(seconds)
	stepAsync                      // handles[slot] = Rank.Async(seconds)
	stepCollective                 // handles[slot] = the coll collective on comm.Comm
	stepWait                       // Rank.Wait(handles[slot])
	stepKernel                     // no charge: the step only runs its kernel
)

// stepLabel is what a charge is booked under: DistResult's maps are keyed
// by its name. The labels are declared in ascending name order, so a sum
// over them in declaration order adds in the order the float-order rules fix
// (docs/ITERATION.md).
type stepLabel uint8

const (
	labAllreduce  stepLabel = iota // the flat schedule's gradient allreduces
	labAlltoall                    // the embedding redistribution, whichever collective moves it
	labArBot                       // bucketed bottom-MLP allreduces
	labArTop                       // bucketed top-MLP allreduces
	labCheckpoint                  // shard checkpoint drain
	labColdTier                    // cold-tier miss fetch
	labColdTierWB                  // cold-tier write-back drain
	labLoader                      // data loader read
	nLabels
)

var labelNames = [nLabels]string{"allreduce", "alltoall", "ar-bot", "ar-top", "checkpoint", "coldtier", "coldtier-wb", "loader"}

// tally is one rank's accounting: the seconds its charges took, booked by
// the walkers step by step — compute in one sum, the rest per label. A label
// enters DistResult's WaitPerIter if it stalled (wait > 0); has records
// whether it enters BusyPerIter and PrepPerIter (a label that only waited
// has no Prep).
type tally struct {
	compute float64
	labels  [nLabels]struct {
		wait, busy, prep float64
		has              uint8
	}
}

const (
	hasBusy uint8 = 1 << iota
	hasPrep
)

// stepWhen restricts a step to some iterations or ranks.
type stepWhen uint8

const (
	always       stepWhen = iota
	notLastIter           // every iteration but the run's last (the loader prefetch)
	atCheckpoint          // iterations completing a checkpoint-cadence boundary
	onRoot                // only on rank == root (the fused scatter's coalescing copy)
)

// collKind selects the collective of a stepCollective.
type collKind uint8

const (
	collAlltoall collKind = iota
	collScatter
	collGather
	collAllreduce
)

// rankCost names a charge that depends on what the rank owns; such a step
// reads its seconds from the plan's per-rank table instead of step.seconds.
type rankCost uint8

const (
	costFixed      rankCost = iota // step.seconds holds the charge
	costEmbFwd                     // bag lookups of the owned tables over the global batch
	costEmbUpd                     // their backward + update sweep
	costLoader                     // the loader's per-iteration read
	costColdTier                   // cold-tier miss traffic of the owned tables
	costCheckpoint                 // shard checkpoint drain
	nRankCosts
)

// kernel is the functional work an attached executor runs with a step,
// before the step's charge; mlp, lo and hi are its arguments.
type kernel uint8

const (
	kNone          kernel = iota
	kEmbForward           // next batch; owned tables' bag sums over the global batch
	kForwardRows          // forward redistribution group lo's segment lists
	kForwardDense         // bottom MLP, interaction, top MLP
	kLoss                 // the loss and its gradient, the head of the backward pass
	kBackward             // layers hi..lo of MLP mlp backward
	kBackwardInter        // interaction backward, then bottom layers hi..lo (none if hi < lo)
	kGrad                 // layers lo..hi of MLP mlp's gradient tensors, for the allreduce
	kBackwardRows         // backward redistribution group lo's segment lists
	kEmbUpdate            // owned tables' backward + update
	kSGD                  // SGD step of layers lo..hi of MLP mlp on their reduced gradients
	kSGDAll               // both whole MLPs (the flat schedule's single sweep)
	kCheckpoint           // hand the shard model to the checkpoint sink
	nKernels
)

// step is one charge of the iteration.
type step struct {
	kind   stepKind
	when   stepWhen
	coll   collKind
	cost   rankCost
	kernel kernel

	label   stepLabel
	channel int     // CCL channel hint of a collective (< 0 = label hash)
	slot    int     // handle written (async, collective) or waited (wait)
	root    int     // scatter / gather root; the rank of an onRoot step
	mlp     int     // kernel argument: topMLP or botMLP
	lo, hi  int     // kernel arguments: a layer range or a group index
	seconds float64 // compute / prep / async charge when cost == costFixed
	bytes   float64 // a collective's modeled volume
	algo    comm.AllreduceAlgo
}

// The two MLPs, as step.mlp names them.
const (
	topMLP = iota
	botMLP
)

// plan is one Run's iteration description: shared by every rank, read-only
// once built.
type plan struct {
	prologue, iter []step
	slots          int // handle slots the lists use

	iters, startIter, ckptEvery int
	costs                       [][nRankCosts]float64 // per rank
}

// defaultBucketChannels is the CCL channel set bucketed allreduces
// round-robin over under Overlap: the forward-alltoall channel (idle during
// the backward) plus the flat schedule's two allreduce channels, leaving
// channel 3 to the backward alltoall. DistConfig.bucketChannels takes a
// prefix of it.
var defaultBucketChannels = []int{0, 1, 2}

// flatChannels are the two channels the flat schedule's top and bottom
// allreduces occupy under Overlap.
var flatChannels = []int{1, 2}

// loaderPerSample is the per-sample cost of the framework data loader
// (§VI-D2), calibrated so 26 ranks × LN=2048 adds ≈20 ms as in Fig. 13
// under the global-read artifact.
const loaderPerSample = 400e-9

// MLPLayerGradBytes returns the modeled gradient volume of layer i of an
// MLP described by its sizes: 4·(f_i·f_o + f_o), the per-layer term of
// Eq. 1. Summed over layers this is mlpParamBytes. Exported so the figure
// harness reports exactly the bucket plan the trainer builds.
func MLPLayerGradBytes(sizes []int, i int) float64 {
	return 4 * float64(sizes[i]*sizes[i+1]+sizes[i+1])
}

// layerBackwardTimes returns each layer's share of the MLP backward time:
// per-layer roofline estimates normalized so they sum to exactly total (the
// flat schedule's whole-stack charge), keeping the bucketed schedule's
// aggregate compute identical and only the interleaving different.
func layerBackwardTimes(sizes []int, n int, sock perfmodel.Socket, cores int, total float64) []float64 {
	times := make([]float64, len(sizes)-1)
	var sum float64
	for i := range times {
		times[i] = sock.GemmTime(perfmodel.MLPPassFlops(sizes[i:i+2], n),
			perfmodel.MLPPassBytes(sizes[i:i+2], n), cores)
		sum += times[i]
	}
	if sum > 0 {
		scale := total / sum
		for i := range times {
			times[i] *= scale
		}
	}
	return times
}

// groups describes the scatter strategies' redistribution as one scatter
// (forward) or gather (backward) per group of tables: ScatterList moves every
// table on its own (group = table id), FusedScatter coalesces each rank's
// tables into one buffer (group = owner rank) — the same path with the
// coalescing copy, and its Prep on the root, switched on.
func (dc *DistConfig) groups() (n int, coalesce bool) {
	if dc.Variant.Strategy == FusedScatter {
		return dc.Ranks, true
	}
	return dc.Cfg.Tables, false
}

// Forward is a config's dense forward — bottom MLP, dot interaction, top
// MLP — as the cost model counts it. Config.Forward builds the layer lists
// once; Work allocates nothing.
type Forward struct {
	bot, top              []int // Config.BotSizes, Config.TopSizes
	pairs, embDim, tables int
}

// Forward returns c's dense forward.
func (c Config) Forward() Forward {
	return Forward{bot: c.BotSizes(), top: c.TopSizes(),
		pairs: c.InterDim() - c.EmbDim, embDim: c.EmbDim, tables: c.Tables}
}

// Work returns the flops and bytes of each pass of the forward over n
// samples: index 0 the bottom MLP, 1 the interaction, 2 the top MLP.
// buildPlan prices each pass on its own with GemmTime at the shard batch;
// the serving tier prices their sum once with GemmTimeN at the batch it
// serves.
func (f Forward) Work(n int) (flops, bytes [3]float64) {
	flops = [3]float64{
		perfmodel.MLPPassFlops(f.bot, n),
		2 * float64(n) * float64(f.pairs) * float64(f.embDim),
		perfmodel.MLPPassFlops(f.top, n),
	}
	bytes = [3]float64{
		perfmodel.MLPPassBytes(f.bot, n),
		8 * float64(n) * float64(f.tables+1) * float64(f.embDim),
		perfmodel.MLPPassBytes(f.top, n),
	}
	return flops, bytes
}

// EmbForward returns rank's embedding-forward charges at global batch n:
// the bag lookups of the tables it owns, streamed on the compute cores, and,
// under the tiered store (0 without it), the cold-tier fetch ahead of them —
// the analytic Zipf hit rate of the per-rank cache over the owned tables,
// the latency plus the miss volume over the cold tier's bandwidth. buildPlan
// charges the two as separate steps at GlobalN; the serving tier charges
// their sum at the batch it serves, each replica a rank.
func (dc *DistConfig) EmbForward(rank, n int) (lookups, coldTier float64) {
	cfg := dc.Cfg
	owned := NumLocalTables(cfg, rank, dc.Ranks)
	lookups = dc.Socket.StreamTime(perfmodel.EmbeddingFwdBytes(owned, n, cfg.Lookups, cfg.EmbDim),
		dc.ClusterConfig().ComputeCores())
	if dc.EmbCacheBytes == 0 {
		return lookups, 0
	}
	skew := dc.EmbSkew
	if skew == 0 {
		skew = DefaultEmbSkew
	}
	var buf [32]int // the owned tables' row counts, on the stack for any model here
	rows := buf[:0]
	for t, m := range cfg.Rows {
		if TableOwner(t, dc.Ranks) == rank {
			rows = append(rows, m)
		}
	}
	hit := embstore.HitRate(dc.EmbCacheBytes, cfg.EmbDim, rows, skew)
	missBytes := (1 - hit) * float64(n) * float64(cfg.Lookups) *
		float64(len(rows)) * float64(cfg.EmbDim) * 4
	return lookups, DefaultColdTierLat + missBytes/dc.ColdTierBW
}

// planBuilder accumulates steps and hands out handle slots.
type planBuilder struct {
	steps    []step
	slots    int
	blocking bool // wait every collective where it is issued
}

func (b *planBuilder) add(s step) { b.steps = append(b.steps, s) }

func (b *planBuilder) slot() int {
	b.slots++
	return b.slots - 1
}

// collective emits collective step s on a new slot and, when waitNow or the
// plan is blocking, its wait right after; it returns the slot if s is left
// pending, -1 if it was waited.
func (b *planBuilder) collective(s step, waitNow bool) int {
	s.kind, s.slot = stepCollective, b.slot()
	b.add(s)
	if waitNow || b.blocking {
		b.wait(s.slot, s.label)
		return -1
	}
	return s.slot
}

// wait emits a wait on slot, booked under l, the label of the step that
// writes the slot.
func (b *planBuilder) wait(slot int, l stepLabel) {
	b.add(step{kind: stepWait, slot: slot, label: l})
}

// buildPlan resolves a validated configuration into its step lists. The
// float expressions and the grouping of charges are part of the virtual-time
// contract: Rank.Compute inflates per call under MPI interference and
// addition is not associative, so a charge is never split, merged or
// re-associated here without moving committed numbers.
func (dc *DistConfig) buildPlan() *plan {
	cfg, ranks, sock := dc.Cfg, dc.Ranks, dc.Socket
	shardN := dc.GlobalN / ranks
	cores := dc.ClusterConfig().ComputeCores()
	stream := func(bytes float64) float64 { return sock.StreamTime(bytes, cores) }
	fwd := cfg.Forward()
	topSizes, botSizes := fwd.top, fwd.bot
	overlapped := dc.Overlapped()
	flat := dc.EffectiveBucketBytes() == 0
	tiered := dc.EmbCacheBytes > 0

	// Modeled per-pass times from the paper-scale config.
	flops, bytes := fwd.Work(shardN)
	botFwd := sock.GemmTime(flops[0], bytes[0], cores)
	interFwd := sock.GemmTime(flops[1], bytes[1], cores)
	topFwd := sock.GemmTime(flops[2], bytes[2], cores)

	// Modeled redistribution volumes (Table II / Eq. 2).
	a2aBlockBytes := float64(MaxLocalTables(cfg, ranks)) * float64(shardN) * float64(cfg.EmbDim) * 4
	scatterBlockBytes := float64(shardN) * float64(cfg.EmbDim) * 4

	p := &plan{
		iters: dc.Iters, startIter: dc.seg.startIter, ckptEvery: dc.seg.ckptEvery,
		costs: make([][nRankCosts]float64, ranks),
	}
	for r := range p.costs {
		c, owned := &p.costs[r], NumLocalTables(cfg, r, ranks)
		c[costEmbFwd], c[costColdTier] = dc.EmbForward(r, dc.GlobalN)
		c[costEmbUpd] = stream(perfmodel.EmbeddingUpdBytes(owned, dc.GlobalN, cfg.Lookups, cfg.EmbDim))
		// The §VI-D2 artifact reads the FULL global minibatch on every rank —
		// O(N·R) cluster-wide; the sharded pipeline reads only this rank's N/R
		// sample slice plus its owned tables' full-batch index columns — ≈2
		// shares, constant in R.
		switch dc.Loader {
		case LoaderGlobalMB:
			c[costLoader] = loaderPerSample * float64(dc.GlobalN)
		case LoaderSharded:
			ownedShare := float64(dc.GlobalN) * float64(owned) / float64(cfg.Tables)
			c[costLoader] = loaderPerSample * (float64(shardN) + ownedShare)
		}
		if dc.seg.ckptEvery > 0 {
			c[costCheckpoint] = shardCheckpointBytes(cfg, r, ranks) / DefaultCheckpointBW
		}
	}

	// CCL channel plan: the overlapped pipeline pins each concurrently
	// in-flight collective to its own channel so the per-channel FIFO model
	// charges true contention — forward redistribution 0, backward 3, the
	// allreduces round-robin over the rest; the sync schedule keeps label-hash
	// placement throughout.
	chFwd, chBwd := -1, -1
	var arChannels []int
	if overlapped {
		chFwd, chBwd, arChannels = 0, 3, defaultBucketChannels
		if flat {
			arChannels = flatChannels
		} else if dc.bucketChannels > 0 {
			arChannels = defaultBucketChannels[:dc.bucketChannels]
		}
	}

	// At most five steps per MLP layer and per scatter group (none under
	// Alltoall), plus the fixed ones.
	groups := 0
	if dc.Variant.Strategy != Alltoall {
		groups, _ = dc.groups()
	}
	b := planBuilder{steps: make([]step, 0, 5*(len(topSizes)+len(botSizes)+groups)+25), blocking: dc.Blocking}

	// redistribute emits one direction of the embedding redistribution
	// (forward: model → data parallel; backward: gradients back to the
	// owners) on channel ch and returns the handle slots it left pending.
	// waitEach waits every collective where it is issued — the sync schedule;
	// per-channel FIFO queueing makes issue-wait-issue-wait differ from
	// issue-issue-wait-wait.
	redistribute := func(forward bool, ch int, waitEach bool) (lo, hi int) {
		lo, hi = b.slots, b.slots
		emit := func(s step) {
			s.label, s.channel, s.kernel = labAlltoall, ch, kBackwardRows
			if forward {
				s.kernel = kForwardRows
			}
			if slot := b.collective(s, waitEach); slot >= 0 {
				hi = slot + 1
			}
		}
		if dc.Variant.Strategy == Alltoall {
			b.add(step{kind: stepPrep, label: labAlltoall, seconds: stream(2 * a2aBlockBytes * float64(ranks))})
			emit(step{coll: collAlltoall, bytes: a2aBlockBytes})
			return lo, hi
		}
		n, coalesce := dc.groups()
		for g := 0; g < n; g++ {
			tables := 1
			if coalesce {
				tables = NumLocalTables(cfg, g, ranks)
			}
			s := step{coll: collGather, root: TableOwner(g, ranks), lo: g, bytes: float64(tables) * scatterBlockBytes}
			if forward {
				s.coll = collScatter
				if coalesce {
					// The root's coalescing copy, the one the paper charges as
					// framework time.
					b.add(step{kind: stepPrep, when: onRoot, root: s.root, label: labAlltoall,
						seconds: stream(2 * float64(tables) * scatterBlockBytes * float64(ranks))})
				}
			}
			emit(s)
		}
		return lo, hi
	}

	// backward emits MLP mlp's backward pass: its compute charges — one per
	// layer under the bucketed schedule, normalized to the whole-stack time
	// total; one for the whole stack under the flat one, which lead (the
	// interaction backward) is merged into when given — and its allreduce
	// buckets, each issued (after the flat-buffer Prep) once the charge
	// covering its lowest layer is made. The flat schedule is one bucket per
	// MLP. Every allreduce is noted in issue order for the SGD's waits (slot
	// -1: waited where issued).
	type issued struct {
		comm.Bucket
		slot, mlp int
		label     stepLabel
	}
	allreduces := make([]issued, 0, len(topSizes)+len(botSizes))
	nextCh := 0
	backward := func(mlp int, sizes []int, total float64, lead *step) {
		layerBytes := make([]float64, len(sizes)-1)
		for i := range layerBytes {
			layerBytes[i] = MLPLayerGradBytes(sizes, i)
		}
		buckets := comm.PlanBuckets(layerBytes, float64(dc.EffectiveBucketBytes()))
		nextCh = buckets.AssignChannels(arChannels, nextCh)
		label, charges := labAllreduce, []float64{total}
		if !flat {
			label, charges = [...]stepLabel{labArTop, labArBot}[mlp], layerBackwardTimes(sizes, shardN, sock, cores, total)
		}
		hi, next := len(sizes)-2, 0
		for lo := len(charges) - 1; lo >= 0; lo-- {
			// Charge lo covers layers hi..lo: one layer, or the whole stack.
			s := step{kind: stepCompute, seconds: charges[lo], kernel: kBackward, mlp: mlp, lo: lo, hi: hi}
			if lead != nil {
				s.seconds, s.kernel = lead.seconds+charges[lo], lead.kernel
				lead = nil
			}
			b.add(s)
			hi = lo - 1
			if bk := buckets.Buckets[next]; bk.Lo == lo {
				next++
				b.add(step{kind: stepPrep, label: label, seconds: stream(2 * bk.Bytes)})
				slot := b.collective(step{coll: collAllreduce, label: label, channel: bk.Channel,
					bytes: bk.Bytes, algo: dc.Allreduce, kernel: kGrad, mlp: mlp, lo: bk.Lo, hi: bk.Hi}, false)
				allreduces = append(allreduces, issued{bk, slot, mlp, label})
			}
		}
	}

	// Prologue. In the overlapped pipeline the loader is the real
	// double-buffered prefetch goroutine: batch 0's fetch starts at t=0 and is
	// exposed once (cold start); every later batch is fetched on the
	// background stream while the previous iteration computes.
	loaderSlot := -1
	if overlapped && dc.Loader != LoaderNone {
		loaderSlot = b.slot()
		b.add(step{kind: stepAsync, label: labLoader, cost: costLoader, slot: loaderSlot})
	}
	prologue := len(b.steps)

	// (0) Data loader: wait for the prefetched batch and start the next fetch
	// (none after the last iteration, so busy time stays one charge per
	// iteration), or charge the read serially (the paper's framework path).
	switch {
	case loaderSlot >= 0:
		b.wait(loaderSlot, labLoader)
		b.add(step{kind: stepAsync, when: notLastIter, label: labLoader, cost: costLoader, slot: loaderSlot})
	case dc.Loader != LoaderNone:
		b.add(step{kind: stepPrep, label: labLoader, cost: costLoader})
	}

	// (1) Embedding forward for the LOCAL tables over the GLOBAL minibatch
	// (model parallelism); under the tiered store the cold tail is fetched
	// first.
	if tiered {
		b.add(step{kind: stepPrep, label: labColdTier, cost: costColdTier})
	}
	b.add(step{kind: stepCompute, cost: costEmbFwd, kernel: kEmbForward})

	// (2)-(4) Redistribute the embedding outputs; the bottom MLP forward on
	// the local shard is the only compute that can hide it (§VI-D).
	fwdLo, fwdHi := redistribute(true, chFwd, false)
	b.add(step{kind: stepCompute, seconds: botFwd})
	for s := fwdLo; s < fwdHi; s++ {
		b.wait(s, labAlltoall)
	}

	// (5) Interaction + top MLP forward + loss: one charge, the loss's kernel
	// a step of its own so the single-socket trainer can time it apart.
	b.add(step{kind: stepCompute, seconds: interFwd + topFwd, kernel: kForwardDense})
	b.add(step{kind: stepKernel, kernel: kLoss})

	// (6)-(8) Backward. Each allreduce is issued as soon as its gradients
	// exist so it overlaps the remaining backward work (§IV-A). The interaction
	// backward produces the embedding gradients, so the overlapped pipeline
	// launches their redistribution right after it and waits at the embedding
	// update; the sync schedule redistributes after the whole backward, waited
	// where issued, and its flat form charges interaction + bottom MLP as one.
	backward(topMLP, topSizes, 2*topFwd, nil)
	inter := step{kind: stepCompute, seconds: interFwd, kernel: kBackwardInter, hi: -1}
	switch {
	case overlapped:
		b.add(inter)
		bwdLo, bwdHi := redistribute(false, chBwd, false)
		backward(botMLP, botSizes, 2*botFwd, nil)
		for s := bwdLo; s < bwdHi; s++ {
			b.wait(s, labAlltoall)
		}
	case flat:
		backward(botMLP, botSizes, 2*botFwd, &inter)
		redistribute(false, -1, true)
	default:
		b.add(inter)
		backward(botMLP, botSizes, 2*botFwd, nil)
		redistribute(false, -1, true)
	}
	b.add(step{kind: stepCompute, cost: costEmbUpd, kernel: kEmbUpdate})
	if tiered {
		// Drain the dirty rows the update left behind to the cold tier on the
		// background stream; the previous iteration's drain must finish first
		// (one write in flight per rank; the first wait is on a zero handle).
		wb := b.slot()
		b.wait(wb, labColdTierWB)
		b.add(step{kind: stepAsync, label: labColdTierWB, cost: costColdTier, slot: wb})
	}

	// (9) Wait for the gradient allreduces and run the MLP SGD: the flat
	// schedule waits both and sweeps once; the bucketed one goes bucket by
	// bucket in issue order, so each slice of the optimizer sweep runs while
	// later buckets still drain.
	for _, ar := range allreduces {
		if ar.slot >= 0 {
			b.wait(ar.slot, ar.label)
		}
		if !flat {
			b.add(step{kind: stepCompute, seconds: stream(3 * ar.Bytes), kernel: kSGD, mlp: ar.mlp, lo: ar.Lo, hi: ar.Hi})
		}
	}
	if flat {
		b.add(step{kind: stepCompute, seconds: stream(3 * cfg.AllreduceBytes()), kernel: kSGDAll})
	}

	// (10) Periodic shard checkpoint: snapshot, then drain on the background
	// stream; waiting the previous drain first keeps one write in flight, so
	// an interval shorter than the drain surfaces as a "checkpoint" stall.
	if dc.seg.ckptEvery > 0 {
		ck := b.slot()
		b.add(step{kind: stepWait, when: atCheckpoint, slot: ck, label: labCheckpoint})
		b.add(step{kind: stepAsync, when: atCheckpoint, label: labCheckpoint, cost: costCheckpoint, slot: ck, kernel: kCheckpoint})
	}

	p.prologue, p.iter, p.slots = b.steps[:prologue], b.steps[prologue:], b.slots
	return p
}

// due reports whether step s runs in iteration it on rank.
func (p *plan) due(s *step, it, rank int) bool {
	switch s.when {
	case notLastIter:
		return it+1 < p.iters
	case atCheckpoint:
		return (p.startIter+it+1)%p.ckptEvery == 0
	case onRoot:
		return rank == s.root
	}
	return true
}

// stage is what a collective moves in functional mode: segment lists into
// the tensors that produce and consume the data (see comm.AlltoallSegs). The
// zero value is a timing-mode collective (no payload).
type stage struct {
	send, recv [][]float32
}

// run is the interpreter: it walks the list step-major over ranks — the
// prologue once (as iteration −1), the iteration list Iters times, each due
// step applied to every rank, in order, before the next — and books each
// charge into the rank's tally. Rank ranks[k] owns handles[k·slots :
// (k+1)·slots] and tallies[k]. A collective is issued once for all of ranks
// through cm. A timing run passes every rank with a comm.ForAll communicator
// (docs/ITERATION.md, "The timing evaluator"); a functional rank passes only
// itself, its own comm.Comm and its executor x, on its cluster.Run
// goroutine. x, which comes only with a set of one rank (runOn is the only
// caller), runs each due step's kernel before the step's charge or issue:
// the one place timing and functional execution differ.
func (p *plan) run(ranks []*cluster.Rank, cm *comm.Comm, handles []cluster.Handle, tallies []tally, x *executor) {
	overhead := ranks[0].Eng.Cfg.CallOverhead
	steps := p.prologue
	for it := -1; it < p.iters; it++ {
		for i := range steps {
			s := &steps[i]
			// due is whether the step runs on ranks[0]: on every rank if it
			// is a collective (never rank-dependent, TestPlanIsSPMD), and on
			// x's rank.
			due := p.due(s, it, ranks[0].ID)
			var buf stage
			if x != nil && due {
				buf = x.run(s, it)
			}
			switch {
			case s.kind != stepCollective:
				for k, r := range ranks {
					if p.due(s, it, r.ID) {
						s.charge(r, p.seconds(s, r.ID), handles[k*p.slots:(k+1)*p.slots], &tallies[k])
					}
				}
			case due:
				h := s.issue(cm, buf)
				for k := range ranks {
					handles[k*p.slots+s.slot] = h
					tallies[k].issued(s.label, h, overhead)
				}
			}
		}
		steps = p.iter
	}
}

// seconds is step s's charge on rank.
func (p *plan) seconds(s *step, rank int) float64 {
	if s.cost != costFixed {
		return p.costs[rank][s.cost]
	}
	return s.seconds
}

// charge applies a rank-local step — compute, prep, async, wait — to r, whose
// handle slots are handles, and books it into t.
func (s *step) charge(r *cluster.Rank, seconds float64, handles []cluster.Handle, t *tally) {
	a := &t.labels[s.label]
	switch s.kind {
	case stepCompute:
		t.compute += r.Compute(seconds)
	case stepPrep:
		r.Prep(seconds)
		a.prep += seconds
		a.has |= hasPrep
	case stepAsync:
		handles[s.slot] = r.Async(seconds)
		a.busy += seconds
		a.has |= hasBusy
	case stepWait:
		a.wait += r.Wait(handles[s.slot])
	}
}

// issued books a collective issued under label l: the call overhead its
// arrival charged the rank as framework time, and its busy time.
func (t *tally) issued(l stepLabel, h cluster.Handle, overhead float64) {
	a := &t.labels[l]
	a.prep += overhead
	a.busy += h.Busy
	a.has |= hasPrep | hasBusy
}

// issue issues collective step s through cm with the segment lists buf.
func (s *step) issue(cm *comm.Comm, buf stage) cluster.Handle {
	label := labelNames[s.label]
	switch s.coll {
	case collAlltoall:
		return cm.AlltoallSegs(label, s.channel, buf.send, buf.recv, s.bytes)
	case collScatter:
		return cm.ScatterSegs(label, s.channel, s.root, buf.send, buf.recv, s.bytes)
	case collGather:
		return cm.GatherSegs(label, s.channel, s.root, buf.send, buf.recv, s.bytes)
	default: // collAllreduce
		return cm.AllreduceSegs(label, s.channel, buf.send, false, s.bytes, s.algo)
	}
}
