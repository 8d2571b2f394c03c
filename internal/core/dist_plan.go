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
// strategy, loader mode, tiering, checkpoint cadence, channel placement) is
// resolved there, into list order — and plan.exec is the one loop that runs
// the list on a rank, for timing and functional runs alike. docs/ITERATION.md
// prints the lists and states the float-order rules the builder must keep.

// stepKind is what a step charges: the cluster.Rank / comm.Comm call the
// interpreter makes for it.
type stepKind uint8

const (
	stepCompute    stepKind = iota // Rank.Compute(seconds)
	stepPrep                       // Rank.Prep(label, seconds)
	stepAsync                      // handles[slot] = Rank.Async(label, seconds)
	stepCollective                 // handles[slot] = the coll collective on comm.Comm
	stepWait                       // Rank.Wait(handles[slot])
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
	kPackForward          // stage forward redistribution group lo
	kForwardDense         // bottom MLP, interaction, top MLP, loss and its gradient
	kBackward             // layers hi..lo of MLP mlp backward, gradients into its flat buffer
	kBackwardInter        // interaction backward, then bottom layers hi..lo (none if hi < lo)
	kGrad                 // stage layers lo..hi of MLP mlp's flat gradients for the allreduce
	kPackBackward         // stage backward redistribution group lo
	kEmbUpdate            // assemble gradient rows; owned tables' backward + update
	kSGD                  // reduced gradients back into layers lo..hi of MLP mlp, SGD step
	kSGDAll               // both whole MLPs (the flat schedule's single sweep)
	kCheckpoint           // hand the shard model to the checkpoint sink
)

// step is one charge of the iteration.
type step struct {
	kind   stepKind
	when   stepWhen
	coll   collKind
	cost   rankCost
	kernel kernel

	label   string
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

// coldTierSeconds resolves rank's per-iteration cold-tier charge under the
// tiered embedding store: the analytic Zipf hit rate of the per-rank cache
// over the tables the rank owns, and the latency plus miss volume over the
// cold tier's bandwidth. rows is scratch.
func (dc *DistConfig) coldTierSeconds(rank int, rows []int) float64 {
	cfg := dc.Cfg
	skew := dc.EmbSkew
	if skew == 0 {
		skew = DefaultEmbSkew
	}
	rows = rows[:0]
	for t, m := range cfg.Rows {
		if TableOwner(t, dc.Ranks) == rank {
			rows = append(rows, m)
		}
	}
	hit := embstore.HitRate(dc.EmbCacheBytes, cfg.EmbDim, rows, skew)
	missBytes := (1 - hit) * float64(dc.GlobalN) * float64(cfg.Lookups) *
		float64(len(rows)) * float64(cfg.EmbDim) * 4
	return DefaultColdTierLat + missBytes/dc.ColdTierBW
}

// planBuilder accumulates steps and hands out handle slots.
type planBuilder struct {
	steps []step
	slots int
}

func (b *planBuilder) add(s step) { b.steps = append(b.steps, s) }

func (b *planBuilder) slot() int {
	b.slots++
	return b.slots - 1
}

// waits emits one wait per slot in [lo, hi).
func (b *planBuilder) waits(lo, hi int) {
	for s := lo; s < hi; s++ {
		b.add(step{kind: stepWait, slot: s})
	}
}

// buildPlan resolves a validated configuration into its step lists. The
// float expressions and the grouping of charges are part of the virtual-time
// contract: Rank.Compute inflates per call under MPI interference and
// addition is not associative, so a charge is never split, merged or
// re-associated here without moving committed numbers.
func (dc *DistConfig) buildPlan() *plan {
	cfg, ranks, sock := dc.Cfg, dc.Ranks, dc.Socket
	shardN := dc.GlobalN / ranks
	cores := dc.clusterConfig(false).ComputeCores()
	stream := func(bytes float64) float64 { return sock.StreamTime(bytes, cores) }
	topSizes, botSizes := cfg.TopSizes(), cfg.BotSizes()
	overlapped := dc.Overlapped()
	flat := dc.EffectiveBucketBytes() == 0
	tiered := dc.EmbCacheBytes > 0

	// Modeled per-pass times from the paper-scale config.
	botFwd := sock.GemmTime(perfmodel.MLPPassFlops(botSizes, shardN),
		perfmodel.MLPPassBytes(botSizes, shardN), cores)
	topFwd := sock.GemmTime(perfmodel.MLPPassFlops(topSizes, shardN),
		perfmodel.MLPPassBytes(topSizes, shardN), cores)
	interFwd := sock.GemmTime(
		2*float64(shardN)*float64(cfg.InterDim()-cfg.EmbDim)*float64(cfg.EmbDim),
		8*float64(shardN)*float64(cfg.Tables+1)*float64(cfg.EmbDim), cores)

	// Modeled redistribution volumes (Table II / Eq. 2).
	a2aBlockBytes := float64(MaxLocalTables(cfg, ranks)) * float64(shardN) * float64(cfg.EmbDim) * 4
	scatterBlockBytes := float64(shardN) * float64(cfg.EmbDim) * 4

	p := &plan{
		iters: dc.Iters, startIter: dc.seg.startIter, ckptEvery: dc.seg.ckptEvery,
		costs: make([][nRankCosts]float64, ranks),
	}
	rows := make([]int, 0, MaxLocalTables(cfg, ranks))
	for r := range p.costs {
		c, owned := &p.costs[r], numLocalTables(cfg, r, ranks)
		c[costEmbFwd] = stream(perfmodel.EmbeddingFwdBytes(owned, dc.GlobalN, cfg.Lookups, cfg.EmbDim))
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
		if tiered {
			c[costColdTier] = dc.coldTierSeconds(r, rows)
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

	// At most five steps per MLP layer and per scatter group, plus the fixed ones.
	groups, _ := dc.groups()
	b := planBuilder{steps: make([]step, 0, 5*(len(topSizes)+len(botSizes)+groups)+24)}

	// redistribute emits one direction of the embedding redistribution
	// (forward: model → data parallel; backward: gradients back to the
	// owners) on channel ch and returns its handle slots. waitEach waits every
	// collective where it is issued — the sync schedule; per-channel FIFO
	// queueing makes issue-wait-issue-wait differ from issue-issue-wait-wait.
	redistribute := func(forward bool, ch int, waitEach bool) (lo, hi int) {
		lo = b.slots
		emit := func(s step) {
			s.kind, s.label, s.channel, s.slot = stepCollective, "alltoall", ch, b.slot()
			s.kernel = kPackBackward
			if forward {
				s.kernel = kPackForward
			}
			b.add(s)
			if waitEach {
				b.add(step{kind: stepWait, slot: s.slot})
			}
		}
		if dc.Variant.Strategy == Alltoall {
			b.add(step{kind: stepPrep, label: "alltoall", seconds: stream(2 * a2aBlockBytes * float64(ranks))})
			emit(step{coll: collAlltoall, bytes: a2aBlockBytes})
			return lo, b.slots
		}
		n, coalesce := dc.groups()
		for g := 0; g < n; g++ {
			tables := 1
			if coalesce {
				tables = numLocalTables(cfg, g, ranks)
			}
			s := step{coll: collGather, root: TableOwner(g, ranks), lo: g, bytes: float64(tables) * scatterBlockBytes}
			if forward {
				s.coll = collScatter
				if coalesce {
					// The root's coalescing copy, the one the paper charges as
					// framework time.
					b.add(step{kind: stepPrep, when: onRoot, root: s.root, label: "alltoall",
						seconds: stream(2 * float64(tables) * scatterBlockBytes * float64(ranks))})
				}
			}
			emit(s)
		}
		return lo, b.slots
	}

	// backward emits MLP mlp's backward pass: its compute charges — one per
	// layer under the bucketed schedule, normalized to the whole-stack time
	// total; one for the whole stack under the flat one, which lead (the
	// interaction backward) is merged into when given — and its allreduce
	// buckets, each issued (after the flat-buffer Prep) once the charge
	// covering its lowest layer is made. The flat schedule is one bucket per
	// MLP. Every allreduce is noted in issue order for the SGD's waits.
	type issued struct {
		comm.Bucket
		slot, mlp int
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
		label, charges := "allreduce", []float64{total}
		if !flat {
			label, charges = [...]string{"ar-top", "ar-bot"}[mlp], layerBackwardTimes(sizes, shardN, sock, cores, total)
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
				b.add(step{kind: stepCollective, coll: collAllreduce, label: label, channel: bk.Channel,
					slot: b.slot(), bytes: bk.Bytes, algo: dc.Allreduce, kernel: kGrad, mlp: mlp, lo: bk.Lo, hi: bk.Hi})
				allreduces = append(allreduces, issued{bk, b.slots - 1, mlp})
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
		b.add(step{kind: stepAsync, label: "loader", cost: costLoader, slot: loaderSlot})
	}
	prologue := len(b.steps)

	// (0) Data loader: wait for the prefetched batch and start the next fetch
	// (none after the last iteration, so busy time stays one charge per
	// iteration), or charge the read serially (the paper's framework path).
	switch {
	case loaderSlot >= 0:
		b.add(step{kind: stepWait, slot: loaderSlot})
		b.add(step{kind: stepAsync, when: notLastIter, label: "loader", cost: costLoader, slot: loaderSlot})
	case dc.Loader != LoaderNone:
		b.add(step{kind: stepPrep, label: "loader", cost: costLoader})
	}

	// (1) Embedding forward for the LOCAL tables over the GLOBAL minibatch
	// (model parallelism); under the tiered store the cold tail is fetched
	// first.
	if tiered {
		b.add(step{kind: stepPrep, label: "coldtier", cost: costColdTier})
	}
	b.add(step{kind: stepCompute, cost: costEmbFwd, kernel: kEmbForward})

	// (2)-(4) Redistribute the embedding outputs; the bottom MLP forward on
	// the local shard is the only compute that can hide it (§VI-D).
	fwdLo, fwdHi := redistribute(true, chFwd, false)
	b.add(step{kind: stepCompute, seconds: botFwd})
	b.waits(fwdLo, fwdHi)

	// (5) Interaction + top MLP forward + loss.
	b.add(step{kind: stepCompute, seconds: interFwd + topFwd, kernel: kForwardDense})

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
		b.waits(bwdLo, bwdHi)
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
		b.add(step{kind: stepWait, slot: wb})
		b.add(step{kind: stepAsync, label: "coldtier-wb", cost: costColdTier, slot: wb})
	}

	// (9) Wait for the gradient allreduces and run the MLP SGD: the flat
	// schedule waits both and sweeps once; the bucketed one goes bucket by
	// bucket in issue order, so each slice of the optimizer sweep runs while
	// later buckets still drain.
	for _, ar := range allreduces {
		b.add(step{kind: stepWait, slot: ar.slot})
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
		b.add(step{kind: stepWait, when: atCheckpoint, slot: ck})
		b.add(step{kind: stepAsync, when: atCheckpoint, label: "checkpoint", cost: costCheckpoint, slot: ck, kernel: kCheckpoint})
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

// stage is what a collective moves in functional mode; the zero value is a
// timing-mode collective (no payload).
type stage struct {
	send, recv []float32
	blockLen   int
}

// run is the interpreter, the SPMD program of every rank: it charges the
// rank with each due step in order — the prologue once (as iteration −1), the
// iteration list Iters times — and, when an executor is attached (x, nil in
// timing mode), runs the step's kernel first. That attachment is the one
// place timing and functional execution differ.
func (p *plan) run(r *cluster.Rank, cm *comm.Comm, handles []cluster.Handle, x *executor) {
	costs := &p.costs[r.ID]
	steps := p.prologue
	for it := -1; it < p.iters; it++ {
		for i := range steps {
			s := &steps[i]
			if !p.due(s, it, r.ID) {
				continue
			}
			var buf stage
			if x != nil {
				buf = x.run(s, it)
			}
			seconds := s.seconds
			if s.cost != costFixed {
				seconds = costs[s.cost]
			}
			switch s.kind {
			case stepCompute:
				r.Compute(seconds)
			case stepPrep:
				r.Prep(s.label, seconds)
			case stepAsync:
				handles[s.slot] = r.Async(s.label, seconds)
			case stepWait:
				r.Wait(handles[s.slot])
			case stepCollective:
				switch s.coll {
				case collAlltoall:
					handles[s.slot] = cm.AlltoallCostOn(s.label, s.channel, buf.send, buf.recv, buf.blockLen, s.bytes)
				case collScatter:
					handles[s.slot] = cm.ScatterCostOn(s.label, s.channel, s.root, buf.send, buf.recv, buf.blockLen, s.bytes)
				case collGather:
					handles[s.slot] = cm.GatherCostOn(s.label, s.channel, s.root, buf.send, buf.recv, s.bytes)
				case collAllreduce:
					handles[s.slot] = cm.AllreduceAlgoCost(s.label, s.channel, buf.send, false, s.bytes, s.algo)
				}
			}
		}
		steps = p.iter
	}
}
