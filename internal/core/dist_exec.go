package core

import (
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/embstore"
	"repro/internal/loss"
	"repro/internal/mlp"
	"repro/internal/optim"
	"repro/internal/par"
	"repro/internal/tensor"
)

// executor is the functional half of an iteration: a model, the kernels the
// plan's steps name, and the numerics they run with. A distributed rank
// builds one per run over its shard model, loader and tiered store; a
// Trainer builds one over its model and walks the one-rank plan. The
// interpreter calls run before each step's charge; the reusable buffers live
// in the DistWorkspace and the data pipeline's staging buffers behind
// loader.
type executor struct {
	dc    *DistConfig
	ws    *DistWorkspace
	model *Model
	pool  *par.Pool
	nets  [2]*mlp.MLP // indexed topMLP, botMLP

	// The numerics. The stored precision is fixed when the executor is
	// built: under BF16 and FP24, mlps holds one optim.Stored per MLP
	// parameter tensor (aligned with ws.grads) and tables one per table;
	// under FP32 both are nil and the update is SGD. A distributed rank
	// trains FP32 with the race-free, unfused update at dc.LR, and a
	// Trainer sets strategy, fused and lr from its fields before every step.
	strategy embedding.Strategy
	fused    bool
	lr       float32
	mlps     [2][]*optim.Stored
	tables   []*optim.Stored
	sgd      sgdCall

	// A distributed rank's run; a Trainer leaves them zero and sets rb to
	// its caller's batch.
	rank   int
	res    *DistResult
	loader *data.ShardedLoader
	store  *embstore.Store // nil unless tiered

	rb     *data.RankBatch
	logits []float32    // the forward's output, for the loss
	cur    *tensor.Acts // the gradient flowing down the backward pass
	loss   float64      // the last loss on rb.Local
}

// newExecutor binds the kernels to model m and, under the BF16 and FP24
// precisions, the reduced-precision storage of every MLP parameter tensor
// and table (optim.NewStored rounds the weights to their working view here,
// once).
func newExecutor(dc *DistConfig, m *Model, pool *par.Pool, ws *DistWorkspace, prec Precision) *executor {
	x := &executor{dc: dc, ws: ws, model: m, pool: pool, nets: [2]*mlp.MLP{m.Top, m.Bot},
		strategy: embedding.RaceFree, lr: dc.LR}
	for i, net := range x.nets {
		g := ws.grads[i][:0]
		for _, l := range net.Layers {
			g = append(g, l.DW.Data, l.DBias)
			if prec != FP32 {
				x.mlps[i] = append(x.mlps[i], optim.NewStored(prec, l.W.Data), optim.NewStored(prec, l.Bias))
			}
		}
		ws.grads[i] = g
		net.InvalidateTransposes()
	}
	if prec != FP32 {
		x.tables = make([]*optim.Stored, len(m.Tables))
		for t, tab := range m.Tables {
			if tab != nil {
				x.tables[t] = optim.NewStored(prec, tab.W)
				// A table settles once at binding, so its 8-LSB split drops
				// the low bits of its initial values; an MLP tensor keeps
				// them until its first step. TestTrainerGolden pins both.
				x.tables[t].Settle()
			}
		}
	}
	return x
}

// newRankExecutor builds rank r's shard model and data pipeline for one run.
func newRankExecutor(dc *DistConfig, r *cluster.Rank, ws *DistWorkspace, res *DistResult) *executor {
	m := NewModelShard(*dc.RunCfg, mlpBlockFor(dc.GlobalN/dc.Ranks), dc.Seed, r.ID, dc.Ranks)
	if dc.seg.restore != nil {
		dc.seg.restore(r.ID, m)
	}
	res.Models[r.ID] = m
	x := newExecutor(dc, m, r.Pool(), ws, FP32)
	x.rank, x.res = r.ID, res
	// Every rank streams its slice of the dataset through the sharded loader,
	// whichever loader the plan prices: the staging buffers live in the
	// rank's workspace, so successive runs refill the same memory; the loader
	// objects themselves are cheap and per-run.
	x.loader = data.NewShardedLoader(data.LoaderConfig{
		DS: dc.Dataset, GlobalN: dc.GlobalN,
		Rank: r.ID, Ranks: dc.Ranks, Owned: ws.locT,
		Start:   dc.seg.startIter,
		Buffers: &ws.loaderBufs,
	})
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
		x.logits = x.model.ForwardDense(x.pool, x.rb.Local.Dense, x.ws.embOut)
	case kLoss:
		x.lossGrad()
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
		x.step(s.mlp, s.lo, s.hi)
	case kSGDAll:
		for mlp, net := range x.nets {
			x.step(mlp, 0, len(net.Layers)-1)
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

// embForward takes the next batch, unless the caller set it, and runs the
// owned tables' bag sums over the GLOBAL minibatch into the workspace's
// per-table buffers.
func (x *executor) embForward() {
	if x.loader != nil {
		x.rb = x.loader.Next()
	}
	for li, t := range x.ws.locT {
		if x.store != nil {
			x.store.Forward(li, x.rb.Owned[li], x.ws.embFull[li])
		} else {
			x.model.Tables[t].Forward(x.pool, x.rb.Owned[li], x.ws.embFull[li])
		}
	}
}

// lossGrad computes the loss of the forward's logits on the local shard and
// leaves the packed loss gradient at the head of the backward pass.
func (x *executor) lossGrad() {
	lmb := x.rb.Local
	dz := x.ws.dz
	x.loss = loss.BCEWithLogits(x.logits, lmb.Labels, dz)
	if x.res != nil {
		x.res.Losses[x.rank] = append(x.res.Losses[x.rank], x.loss)
	}
	// Rescale from 1/localN to 1/globalN so the allreduce SUM of MLP grads
	// equals the single-socket global-batch gradient (× 1, exactly, at one
	// rank).
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
// the backward redistribution assembled in ws.dOutFull. The per-lookup
// gradient rows live in the workspace, so every update path stays
// allocation-free.
func (x *executor) embUpdate() {
	ws := x.ws
	for li, t := range ws.locT {
		tab, ob, dOut := x.model.Tables[t], x.rb.Owned[li], ws.dOutFull[li]
		if x.fused && x.tables == nil {
			tab.FusedBackwardUpdate(x.pool, ob, dOut, x.lr)
			continue
		}
		dW := ensureF32(&ws.dW[li], ob.NumLookups()*tab.E)
		tab.Backward(x.pool, ob, dOut, dW)
		switch {
		case x.store != nil:
			x.store.Update(li, ob, dW, x.lr)
		case x.tables != nil:
			tab.UpdateStored(x.pool, x.tables[t], ob, dW, x.lr)
			x.tables[t].Settle()
		default:
			tab.Update(x.pool, x.strategy, ob, dW, x.lr)
		}
	}
}

// sgdChunk is the parameter count one worker updates at a time: large
// enough that a bias vector is not worth a parallel region.
const sgdChunk = 4096

// sgdCall is the argument block of sgdBody (persistent on the executor so
// the parallel sweep allocates nothing).
type sgdCall struct {
	opt  optim.SGD
	grad []float32
	lr   float32
}

func sgdBody(arg any, tid, lo, hi int) {
	c := arg.(*sgdCall)
	c.opt.StepRange(c.grad, c.lr, lo*sgdChunk, min(hi*sgdChunk, len(c.grad)))
}

// step applies the optimizer to layers lo..hi of one MLP on their (reduced)
// gradients.
func (x *executor) step(mlp, lo, hi int) {
	for i := lo; i <= hi; i++ {
		l := x.nets[mlp].Layers[i]
		x.update(mlp, 2*i, l.W.Data)
		x.update(mlp, 2*i+1, l.Bias)
		l.InvalidateTranspose()
	}
}

// update steps parameter tensor k of one MLP (ws.grads' numbering): a
// stored tensor whole, FP32 as optim.SGD in chunk ranges over the pool —
// the update is elementwise, so any partition gives the same bits.
func (x *executor) update(mlp, k int, params []float32) {
	grad := x.ws.grads[mlp][k]
	if st := x.mlps[mlp]; st != nil {
		st[k].Step(params, 0, grad, x.lr)
		st[k].Settle()
		return
	}
	x.sgd = sgdCall{opt: optim.SGD{Params: params}, grad: grad, lr: x.lr}
	x.pool.ForNArg((len(grad)+sgdChunk-1)/sgdChunk, sgdBody, &x.sgd)
	x.sgd = sgdCall{}
}
