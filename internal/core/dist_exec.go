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
	grads  [2]flatGrads    // indexed topMLP, botMLP

	rb   *data.RankBatch
	cur  *tensor.Acts // the gradient flowing down the backward pass
	dEmb [][]float32  // per table: this shard's bag-output gradients
}

// flatGrads is one MLP's gradients the way the allreduces see them: every
// layer's tensors back to back in buf, layer i starting at off[i].
type flatGrads struct {
	m   *mlp.MLP
	buf []float32
	off []int
}

// bind lays m's gradients out over *buf and *off (workspace storage).
func (g *flatGrads) bind(m *mlp.MLP, buf *[]float32, off *[]int) {
	o := (*off)[:0]
	n := 0
	for i := range m.Layers {
		o = append(o, n)
		n += m.LayerGradLen(i)
	}
	*off = append(o, n)
	g.m, g.buf, g.off = m, ensureF32(buf, n), *off
}

// move copies layers lo..hi between the MLP's gradient tensors and the flat
// buffer: into it (capture) or back out of it.
func (g *flatGrads) move(lo, hi int, capture bool) {
	pos := g.off[lo]
	for l := lo; l <= hi; l++ {
		g.m.VisitLayerGrads(l, func(_ string, t []float32) {
			if capture {
				copy(g.buf[pos:pos+len(t)], t)
			} else {
				copy(t, g.buf[pos:pos+len(t)])
			}
			pos += len(t)
		})
	}
}

// newExecutor builds rank r's shard model and data pipeline for one run.
func newExecutor(dc *DistConfig, r *cluster.Rank, ws *DistWorkspace, res *DistResult) *executor {
	shardN := dc.GlobalN / dc.Ranks
	m := NewModelShard(*dc.RunCfg, mlpBlockFor(shardN), dc.Seed, r.ID, dc.Ranks)
	x := &executor{dc: dc, rank: r.ID, ws: ws, res: res, model: m, pool: r.Pool()}
	x.grads[topMLP].bind(m.Top, &ws.topGrad, &ws.topOff)
	x.grads[botMLP].bind(m.Bot, &ws.botGrad, &ws.botOff)
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
// the buffers to move: the data is in place when the collective returns (the
// rendezvous is synchronous — the handle defers only virtual time).
func (x *executor) run(s *step, it int) (buf stage) {
	switch s.kernel {
	case kEmbForward:
		x.embForward()
	case kPackForward:
		return x.packForward(s.lo)
	case kForwardDense:
		x.forwardDense()
	case kBackward:
		x.backward(s.mlp, s.lo, s.hi)
	case kBackwardInter:
		x.cur, x.dEmb = x.model.backwardInteraction(x.pool, x.cur)
		x.backward(botMLP, s.lo, s.hi)
	case kGrad:
		g := &x.grads[s.mlp]
		buf.send = g.buf[g.off[s.lo]:g.off[s.hi+1]]
	case kPackBackward:
		return x.packBackward(s.lo)
	case kEmbUpdate:
		x.embUpdate()
	case kSGD:
		x.sgd(s.mlp, s.lo, s.hi)
	case kSGDAll:
		for mlp, g := range x.grads {
			x.sgd(mlp, 0, len(g.m.Layers)-1)
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
	return buf
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

// packBlocks coalesces rows — each one block of rowLen floats per destination
// — into send, so that destination d's block of blockLen floats holds every
// row's d-th block; unpackBlocks is its inverse on the receiving side.
func packBlocks(send []float32, blockLen, rowLen int, rows [][]float32) {
	for d := 0; d*blockLen < len(send); d++ {
		for li, row := range rows {
			copy(send[d*blockLen+li*rowLen:d*blockLen+(li+1)*rowLen], row[d*rowLen:(d+1)*rowLen])
		}
	}
}

func unpackBlocks(rows [][]float32, recv []float32, blockLen, rowLen int) {
	for src := 0; src*blockLen < len(recv); src++ {
		for li, row := range rows {
			copy(row[src*rowLen:(src+1)*rowLen], recv[src*blockLen+li*rowLen:src*blockLen+(li+1)*rowLen])
		}
	}
}

// packForward stages forward redistribution group g: the owned tables' bag
// outputs leave for the ranks whose samples they are. The receive side needs
// no unpacking — ws.embOut holds views into the receive buffers.
func (x *executor) packForward(g int) stage {
	ws := x.ws
	if x.dc.Variant.Strategy == Alltoall {
		packBlocks(ws.sendF, ws.block, ws.rowLen, ws.embFull)
		return stage{send: ws.sendF, recv: ws.recvF, blockLen: ws.block}
	}
	tabs := ws.groups[g]
	buf := stage{recv: ws.grpRecv[g][:len(tabs)*ws.rowLen], blockLen: len(tabs) * ws.rowLen}
	if TableOwner(tabs[0], x.dc.Ranks) != x.rank {
		return buf
	}
	if _, coalesce := x.dc.groups(); coalesce {
		// The copy the paper charges as framework time.
		buf.send = ws.sendF
		packBlocks(buf.send, buf.blockLen, ws.rowLen, ws.embFull)
	} else {
		// One table: its rows are already one block per destination.
		buf.send = ws.embFull[LocalTableIndex(tabs[0], x.dc.Ranks)]
	}
	return buf
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

// backward steps layers hi..lo of one MLP and captures their gradients into
// its flat buffer. The top MLP's layer 0 must produce an input gradient (it
// feeds the interaction); the bottom one's ends the pass.
func (x *executor) backward(mlp, lo, hi int) {
	g := &x.grads[mlp]
	for i := hi; i >= lo; i-- {
		x.cur = g.m.BackwardLayer(x.pool, i, x.cur, mlp == topMLP || i > 0)
	}
	g.move(lo, hi, true)
}

// packBackward stages backward redistribution group g: each table's output
// gradients return to the owning rank, which assembles them in embUpdate.
func (x *executor) packBackward(g int) stage {
	ws := x.ws
	if x.dc.Variant.Strategy == Alltoall {
		for dst, tabs := range ws.tablesByRank {
			for li, t := range tabs {
				copy(ws.sendB[dst*ws.block+li*ws.rowLen:dst*ws.block+(li+1)*ws.rowLen], x.dEmb[t])
			}
		}
		return stage{send: ws.sendB, recv: ws.recvB, blockLen: ws.block}
	}
	tabs := ws.groups[g]
	_, coalesce := x.dc.groups()
	buf := stage{send: x.dEmb[tabs[0]]}
	if coalesce {
		buf.send = ws.sendB[:len(tabs)*ws.rowLen]
		for li, t := range tabs {
			copy(buf.send[li*ws.rowLen:(li+1)*ws.rowLen], x.dEmb[t])
		}
	}
	if TableOwner(tabs[0], x.dc.Ranks) == x.rank {
		if coalesce {
			buf.recv = ws.recvB
		} else {
			// A gather concatenates shard rows in rank order, which is exactly
			// the assembled full-batch layout.
			buf.recv = ws.dOutFull[LocalTableIndex(tabs[0], x.dc.Ranks)]
		}
	}
	return buf
}

// embUpdate assembles the received gradient rows into ws.dOutFull (the
// coalescing strategies; a single-table gather landed there directly) and
// runs the owned tables' backward and update.
func (x *executor) embUpdate() {
	ws := x.ws
	if ws.block > 0 {
		unpackBlocks(ws.dOutFull, ws.recvB, ws.block, ws.rowLen)
	}
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

// sgd writes the reduced gradients of layers lo..hi back into the MLP and
// applies their slice of the optimizer step.
func (x *executor) sgd(mlp, lo, hi int) {
	g := &x.grads[mlp]
	g.move(lo, hi, false)
	g.m.StepLayers(lo, hi, x.dc.LR)
}
