package core

import (
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/embstore"
	"repro/internal/loss"
	"repro/internal/mlp"
	"repro/internal/par"
	"repro/internal/tensor"
)

// executor is the functional half of a rank: the model shard, loader and
// tiered store of one run, and the kernels the plan's steps name. The
// interpreter calls run before each step's charge; the reusable buffers live
// in the rank's DistWorkspace and the data pipeline's staging buffers behind
// loader.
type executor struct {
	dc    *DistConfig
	rank  int
	ws    *DistWorkspace
	res   *DistResult
	model *Model
	pool  *par.Pool

	loader data.Loader
	store  *embstore.Store // nil unless tiered
	nets   [2]*mlp.MLP     // indexed topMLP, botMLP

	rb  *data.RankBatch
	cur *tensor.Acts // the gradient flowing down the backward pass
}

// newExecutor builds rank r's shard model and data pipeline for one run.
func newExecutor(dc *DistConfig, r *cluster.Rank, ws *DistWorkspace, res *DistResult) *executor {
	shardN := dc.GlobalN / dc.Ranks
	m := NewModelShard(*dc.RunCfg, mlpBlockFor(shardN), dc.Seed, r.ID, dc.Ranks)
	x := &executor{dc: dc, rank: r.ID, ws: ws, res: res, model: m, pool: r.Pool(), nets: [2]*mlp.MLP{m.Top, m.Bot}}
	for i, net := range x.nets {
		g := ws.grads[i][:0]
		for _, l := range net.Layers {
			g = append(g, l.DW.Data, l.DBias)
		}
		ws.grads[i] = g
	}
	if dc.seg.restore != nil {
		dc.seg.restore(r.ID, m)
	}
	res.Models[r.ID] = m
	// Every rank owns a data loader over its slice of the dataset. The staging
	// buffers live in the rank's workspace, so successive runs refill the same
	// memory; the loader objects themselves are cheap and per-run.
	// LoaderGlobalMB executes the real artifact (full global read + shard
	// copy); everything else streams the sharded pipeline.
	lc := data.LoaderConfig{
		DS: dc.Dataset, GlobalN: dc.GlobalN,
		Rank: r.ID, Ranks: dc.Ranks, Owned: ws.locT,
		Start:   dc.seg.startIter,
		Buffers: &ws.loaderBufs,
	}
	if dc.Loader == LoaderGlobalMB {
		x.loader = data.NewGlobalReadLoader(lc)
	} else {
		x.loader = data.NewShardedLoader(lc)
	}
	if dc.EmbCacheBytes > 0 {
		// Table access goes through a real embstore.Store whose cached path is
		// bit-identical to the in-RAM one, so the loss curve is unchanged.
		owned := make([]*embedding.Table, len(ws.locT))
		for li, t := range ws.locT {
			owned[li] = m.Tables[t]
		}
		var err error
		if x.store, err = embstore.New(dc.EmbCacheBytes, owned); err != nil {
			panic(err) // unreachable: a config has one EmbDim
		}
	}
	return x
}

// close settles the tables before the run's models are inspected — after the
// flush they hold exactly the values the untiered path trains — and stops
// the loader.
func (x *executor) close() {
	if x.store != nil {
		x.store.Flush()
	}
	x.loader.Close()
}

// run executes step s's kernel in iteration it. For a collective it returns
// the segment lists to move: the data is in place when the collective
// returns (the rendezvous is synchronous — the handle defers only virtual
// time).
func (x *executor) run(s *step, it int) stage {
	switch s.kernel {
	case kEmbForward:
		x.embForward()
	case kForwardRows:
		return x.ws.fwd[s.lo]
	case kForwardDense:
		x.forwardDense()
	case kBackward:
		x.backward(s.mlp, s.lo, s.hi)
	case kBackwardInter:
		x.cur = x.model.backwardInteraction(x.pool, x.cur, x.ws.dEmb)
		x.backward(botMLP, s.lo, s.hi)
	case kGrad:
		return stage{send: x.ws.grads[s.mlp][2*s.lo : 2*s.hi+2]}
	case kBackwardRows:
		return x.ws.bwd[s.lo]
	case kEmbUpdate:
		x.embUpdate()
	case kSGD:
		x.nets[s.mlp].StepLayers(s.lo, s.hi, x.dc.LR)
	case kSGDAll:
		for _, net := range x.nets {
			net.Step(x.dc.LR)
		}
	case kCheckpoint:
		if sink := x.dc.seg.sink; sink != nil {
			if x.store != nil {
				// The cached copies are authoritative; flush so the
				// checkpointed tables hold the untiered values.
				x.store.Flush()
			}
			sink(x.rank, x.dc.seg.startIter+it+1, x.model)
		}
	}
	return stage{}
}

// embForward takes the next batch and runs the owned tables' bag sums over
// the GLOBAL minibatch into the workspace's per-table buffers.
func (x *executor) embForward() {
	x.rb = x.loader.Next()
	for li, t := range x.ws.locT {
		if x.store != nil {
			x.store.Forward(li, x.rb.Owned[li], x.ws.embFull[li])
		} else {
			x.model.Tables[t].Forward(x.pool, x.rb.Owned[li], x.ws.embFull[li])
		}
	}
}

// forwardDense runs the dense forward and the loss on the local shard and
// leaves the packed loss gradient at the head of the backward pass.
func (x *executor) forwardDense() {
	lmb := x.rb.Local
	logits := x.model.ForwardDense(x.pool, lmb.Dense, x.ws.embOut)
	dz := x.ws.dz
	l := loss.BCEWithLogits(logits, lmb.Labels, dz)
	x.res.Losses[x.rank] = append(x.res.Losses[x.rank], l)
	// Rescale from 1/localN to 1/globalN so the allreduce SUM of MLP grads
	// equals the single-socket global-batch gradient.
	scale := float32(len(dz)) / float32(x.dc.GlobalN)
	for i := range dz {
		dz[i] *= scale
	}
	x.cur = x.model.packLossGrad(dz)
}

// backward steps layers hi..lo of one MLP, leaving their gradients in the
// layers' DW and DBias, where the allreduce reads them. The top MLP's layer
// 0 must produce an input gradient (it feeds the interaction); the bottom
// one's ends the pass.
func (x *executor) backward(mlp, lo, hi int) {
	for i := hi; i >= lo; i-- {
		x.cur = x.nets[mlp].BackwardLayer(x.pool, i, x.cur, mlp == topMLP || i > 0)
	}
}

// embUpdate runs the owned tables' backward and update on the gradient rows
// the backward redistribution assembled in ws.dOutFull.
func (x *executor) embUpdate() {
	ws := x.ws
	for li, t := range ws.locT {
		tab := x.model.Tables[t]
		ob := x.rb.Owned[li]
		dW := ensureF32(&ws.dW[li], ob.NumLookups()*tab.E)
		tab.Backward(x.pool, ob, ws.dOutFull[li], dW)
		if x.store != nil {
			x.store.Update(li, ob, dW, x.dc.LR)
		} else {
			tab.Update(x.pool, embedding.RaceFree, ob, dW, x.dc.LR)
		}
	}
}
