package core

import (
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/mlp"
	"repro/internal/perfmodel"
)

// The bucketed gradient-allreduce schedule (the default; FlatBuckets
// disables it) is
// Fig. 2's overlap story at layer granularity: the MLP backward is
// layer-stepped, each MLP's flat gradient buffer is carved into contiguous
// per-layer buckets coalesced up to BucketBytes, and a bucket's allreduce is
// issued the moment its last layer's dW is materialized — while the
// remaining backward GEMMs (and, under Overlap, the backward embedding
// redistribution) still run. The waits are deferred per-bucket to that
// bucket's slice of the SGD, so the earliest buckets drain behind the
// deepest layers' compute and only the final bucket's tail can expose.
//
// The segmentation changes no math: per-bucket allreduces sum rank buffers
// elementwise exactly like the flat allreduce, the per-layer charges are
// normalized so they total the flat schedule's whole-pass times, and the
// per-bucket SGD slices sum to the flat sgdTime. Flat (BucketBytes =
// FlatBuckets) runs never enter this file and stay bit-identical to the
// un-bucketed pipeline.

// MLPLayerGradBytes returns the modeled gradient volume of layer i of an
// MLP described by its sizes: 4·(f_i·f_o + f_o), the per-layer term of
// Eq. 1. Summed over layers this is mlpParamBytes. Exported so the figure
// harness reports exactly the bucket plan the trainer builds.
func MLPLayerGradBytes(sizes []int, i int) float64 {
	return 4 * float64(sizes[i]*sizes[i+1]+sizes[i+1])
}

// layerBackwardTimes fills dst with each layer's share of the MLP backward
// time: per-layer roofline estimates normalized so they sum to exactly
// total (the flat schedule's whole-stack charge), keeping the bucketed
// schedule's aggregate compute identical and only the interleaving
// different.
func layerBackwardTimes(dst []float64, sizes []int, n int, sock perfmodel.Socket, cores int, total float64) []float64 {
	layers := len(sizes) - 1
	dst = dst[:0]
	var sum float64
	for i := 0; i < layers; i++ {
		t := sock.GemmTime(perfmodel.MLPPassFlops(sizes[i:i+2], n),
			perfmodel.MLPPassBytes(sizes[i:i+2], n), cores)
		dst = append(dst, t)
		sum += t
	}
	if sum > 0 {
		scale := total / sum
		for i := range dst {
			dst[i] *= scale
		}
	}
	return dst
}

// gradOffsets fills dst with the flat-buffer offset of every layer's
// gradient block (len = layers+1; dst[layers] is the total), matching the
// VisitGrads order flattenGrads writes.
func gradOffsets(dst []int, m *mlp.MLP) []int {
	dst = dst[:0]
	off := 0
	for i := range m.Layers {
		dst = append(dst, off)
		off += m.LayerGradLen(i)
	}
	return append(dst, off)
}

// prepareBuckets rebuilds the workspace's bucket plans for this run: the
// paper-scale per-layer volumes are coalesced into buckets, each bucket's
// allreduce algorithm is resolved (per-bucket cost-model selection under
// AllreduceAuto), channels are round-robined over the configured set when
// overlapped (rotation continuing from the top plan into the bottom one so
// adjacent buckets sit on distinct FIFOs), the per-layer backward charges
// are derived from the flat totals, and — in functional mode — the
// per-layer offsets into the flat gradient buffers are recorded.
func (dc DistConfig) prepareBuckets(cm *comm.Comm, ws *DistWorkspace, fn *funcState,
	cores, shardN int, topBwdTotal, botBwdTotal float64) {
	sock := dc.Socket
	topSizes, botSizes := dc.Cfg.TopSizes(), dc.Cfg.BotSizes()
	bb := float64(dc.EffectiveBucketBytes())

	ws.layerBytes = ws.layerBytes[:0]
	for i := 0; i+1 < len(topSizes); i++ {
		ws.layerBytes = append(ws.layerBytes, MLPLayerGradBytes(topSizes, i))
	}
	ws.topBuckets = comm.PlanBuckets(ws.layerBytes, bb)
	ws.layerBytes = ws.layerBytes[:0]
	for i := 0; i+1 < len(botSizes); i++ {
		ws.layerBytes = append(ws.layerBytes, MLPLayerGradBytes(botSizes, i))
	}
	ws.botBuckets = comm.PlanBuckets(ws.layerBytes, bb)

	ws.topBuckets.SelectAlgos(cm.Pricer, dc.Allreduce)
	ws.botBuckets.SelectAlgos(cm.Pricer, dc.Allreduce)

	if dc.Overlapped() {
		chans := dc.BucketChannels
		if chans == nil {
			chans = defaultBucketChannels
		}
		next := ws.topBuckets.AssignChannels(chans, 0)
		ws.botBuckets.AssignChannels(chans, next)
	}

	ws.topBwdT = layerBackwardTimes(ws.topBwdT, topSizes, shardN, sock, cores, topBwdTotal)
	ws.botBwdT = layerBackwardTimes(ws.botBwdT, botSizes, shardN, sock, cores, botBwdTotal)

	if fn != nil {
		// Validate has checked that the functional model has Cfg's layer
		// counts, so the plans above index its layers one to one.
		ws.topOff = gradOffsets(ws.topOff, fn.model.Top)
		ws.botOff = gradOffsets(ws.botOff, fn.model.Bot)
	}
}

// defaultBucketChannels is the CCL channel set bucketed allreduces
// round-robin over under Overlap when DistConfig.BucketChannels is nil: the
// forward-alltoall channel (idle during the backward) plus the flat
// schedule's two allreduce channels, leaving channel 3 to the backward
// alltoall.
var defaultBucketChannels = []int{0, 1, 2}

// bucketState drives one MLP's layer-stepped backward bookkeeping for the
// bucketed schedule: per layer it charges the modeled backward time,
// captures the layer's gradients into the flat buffer (functional mode),
// and issues the bucket's allreduce when the layer closes one, appending
// the handle to the workspace's issue-order list for the SGD-time waits.
//
// The two states live in the rank's DistWorkspace (not on the stack): the
// functional callbacks capture them by pointer, and keeping them in the
// workspace prevents that capture from forcing a per-iteration heap
// allocation onto the timing-mode path, which must stay allocation-free.
type bucketState struct {
	cm    *comm.Comm
	r     *cluster.Rank
	ws    *DistWorkspace
	sock  perfmodel.Socket
	cores int

	label string
	plan  comm.BucketPlan
	times []float64 // per-layer modeled backward seconds
	off   []int     // per-layer flat-buffer offsets (nil in timing mode)
	flat  []float32 // flat gradient buffer (nil in timing mode)
	next  int       // next bucket to issue
}

// layerDone records layer i's backward completion. m is the MLP being
// stepped (nil in timing mode).
func (bs *bucketState) layerDone(i int, m *mlp.MLP) {
	bs.r.Compute(bs.times[i])
	if m != nil {
		pos := bs.off[i]
		m.VisitLayerGrads(i, func(_ string, g []float32) {
			copy(bs.flat[pos:pos+len(g)], g)
			pos += len(g)
		})
	}
	if bs.next >= len(bs.plan.Buckets) {
		return
	}
	b := bs.plan.Buckets[bs.next]
	if i != b.Lo {
		return
	}
	var seg []float32
	if m != nil {
		seg = bs.flat[bs.off[b.Lo]:bs.off[b.Hi+1]]
	}
	bs.r.Prep(bs.label, bs.sock.StreamTime(2*b.Bytes, bs.cores))
	h := bs.cm.AllreduceAlgoCost(bs.label, b.Channel, seg, false, b.Bytes, b.Algo)
	bs.ws.bktHandles = append(bs.ws.bktHandles, h)
	bs.next++
}

// backwardBucketed runs the whole backward half of the iteration under the
// bucketed schedule: top MLP layer-stepped with per-bucket allreduce
// issues, the interaction backward (with the backward redistribution
// launched right after it under Overlap, exactly as in the flat overlapped
// schedule), then the bottom MLP layer-stepped the same way. On return all
// buckets are issued (handles in ws.bktHandles, waited by sgdBucketed) and
// the embedding gradients are assembled in ws.dOutFull.
func (dc DistConfig) backwardBucketed(cm *comm.Comm, r *cluster.Rank, fn *funcState, ws *DistWorkspace,
	cores, maxLoc, shardN int, interBwd float64, a2aBlockBytes, scatterBlockBytes float64, chBwd int) {
	ws.bktHandles = ws.bktHandles[:0]
	ws.topBS = bucketState{cm: cm, r: r, ws: ws, sock: dc.Socket, cores: cores,
		label: "ar-top", plan: ws.topBuckets, times: ws.topBwdT}
	ws.botBS = bucketState{cm: cm, r: r, ws: ws, sock: dc.Socket, cores: cores,
		label: "ar-bot", plan: ws.botBuckets, times: ws.botBwdT}

	// The interaction backward sits between the two MLPs; under Overlap the
	// backward redistribution launches right after it — before the bottom
	// MLP's backward, whose compute (plus the bottom buckets' issue points)
	// hides it — and is finished at the embedding update, as in the flat
	// overlapped schedule. The sync schedule redistributes after the whole
	// backward, waited where issued.
	var dEmb [][]float32
	if fn != nil {
		ws.topBS.off, ws.topBS.flat = ws.topOff, ws.topGrad
		ws.botBS.off, ws.botBS.flat = ws.botOff, ws.botGrad
		top, bot := fn.model.Top, fn.model.Bot
		dEmb = fn.model.BackwardDenseVisit(fn.pool, ws.dz,
			func(i int) { ws.topBS.layerDone(i, top) },
			func(d [][]float32) {
				r.Compute(interBwd)
				if dc.Overlapped() {
					dc.backwardRedistributeIssue(cm, r, fn, ws, maxLoc, shardN, d,
						a2aBlockBytes, scatterBlockBytes, chBwd, false)
				}
			},
			func(i int) { ws.botBS.layerDone(i, bot) })
	} else {
		for i := len(ws.topBwdT) - 1; i >= 0; i-- {
			ws.topBS.layerDone(i, nil)
		}
		r.Compute(interBwd)
		if dc.Overlapped() {
			dc.backwardRedistributeIssue(cm, r, fn, ws, maxLoc, shardN, nil,
				a2aBlockBytes, scatterBlockBytes, chBwd, false)
		}
		for i := len(ws.botBwdT) - 1; i >= 0; i-- {
			ws.botBS.layerDone(i, nil)
		}
	}

	if dc.Overlapped() {
		dc.backwardRedistributeFinish(r, fn, ws, shardN)
	} else {
		dc.backwardRedistribute(cm, r, fn, ws, maxLoc, shardN, dEmb, a2aBlockBytes, scatterBlockBytes)
	}
}

// sgdBucketed waits the buckets in issue order — top MLP first, exactly the
// order they were enqueued — and applies each one's slice of the SGD as
// soon as it lands, so later buckets keep draining behind the earlier
// slices' optimizer sweeps. The slice charges sum to the flat schedule's
// sgdTime.
func (dc DistConfig) sgdBucketed(r *cluster.Rank, fn *funcState, ws *DistWorkspace, cores int) {
	hi := 0
	for half := 0; half < 2; half++ {
		plan := ws.topBuckets
		var m *mlp.MLP
		var off []int
		var flat []float32
		if half == 1 {
			plan = ws.botBuckets
		}
		if fn != nil {
			if half == 0 {
				m, off, flat = fn.model.Top, ws.topOff, ws.topGrad
			} else {
				m, off, flat = fn.model.Bot, ws.botOff, ws.botGrad
			}
		}
		for _, b := range plan.Buckets {
			r.Wait(ws.bktHandles[hi])
			hi++
			r.Compute(dc.Socket.StreamTime(3*b.Bytes, cores))
			if m == nil {
				continue
			}
			pos := off[b.Lo]
			for l := b.Lo; l <= b.Hi; l++ {
				m.VisitLayerGrads(l, func(_ string, g []float32) {
					copy(g, flat[pos:pos+len(g)])
					pos += len(g)
				})
			}
			m.StepLayers(b.Lo, b.Hi, dc.LR)
		}
	}
}
