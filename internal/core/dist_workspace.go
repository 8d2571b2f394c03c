package core

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/data"
)

// distKey identifies the shape of a distributed run. A workspace whose key
// changes rebuilds its table map and lets the ensure helpers regrow the
// buffers; while the key is stable, every iteration — and every run in a
// sweep that reuses the same DistWorkspaces — reuses the same storage.
type distKey struct {
	ranks, globalN int
	tables, embDim int
	strategy       CommStrategy
	functional     bool
}

// DistWorkspace owns every buffer one simulated rank reuses across
// distributed training iterations: the alltoall / fused-scatter /
// scatter-list send and receive blocks of both redistribution phases, the
// per-table embedding outputs and assembled gradient rows, the per-table
// sparse gradient buffers, the loss gradient, and the flat MLP gradient
// buffers behind the two allreduces. Together with the rank's persistent
// par.Pool this makes the steady-state distributed iteration free of heap
// allocations in timing mode (enforced by dist_alloc_test.go) and
// allocation-light in functional mode.
//
// A DistWorkspace is owned by a DistWorkspaces set and used by exactly one
// rank goroutine per run; it is not safe for concurrent use.
type DistWorkspace struct {
	key distKey

	handles      []cluster.Handle // forward redistribution (reused per iter)
	bwdHandles   []cluster.Handle // overlapped backward redistribution
	tablesByRank [][]int          // rank → owned table ids (round-robin)
	locT         []int            // this rank's entry of tablesByRank

	// Functional-mode buffers; all indexed by local table position li
	// (table id t = rank + li·ranks) unless noted.
	embFull  [][]float32 // owned-table bag outputs over the GLOBAL batch, GlobalN×E
	embOut   [][]float32 // per table id: this rank's shard rows (views into recvs)
	dOutFull [][]float32 // owned-table assembled gradients, GlobalN×E
	dW       [][]float32 // owned-table per-lookup gradient rows
	dz       []float32   // loss gradient, length shardN

	a2aSendF, a2aRecvF []float32   // alltoall forward blocks
	a2aSendB, a2aRecvB []float32   // alltoall backward blocks
	scRecv             [][]float32 // per table id: scatter-list forward recv, shardN×E
	fsRecv             [][]float32 // per root rank: fused-scatter forward recv
	fsSend             []float32   // fused-scatter coalesced send (this rank as root)
	gaSend             []float32   // fused gather send (coalesced owned-table grads)
	gaRecv             []float32   // fused gather recv at root

	botGrad, topGrad []float32 // flat MLP gradients for the allreduces

	// Bucketed-allreduce state (DistConfig.BucketBytes > 0), rebuilt by
	// prepareBuckets at the start of every run (layer-count-sized work) and
	// reused across iterations: the per-MLP bucket plans over the
	// paper-scale layer volumes, the modeled per-layer backward times, the
	// per-layer offsets into the flat gradient buffers (functional mode),
	// and the issue-order bucket handles waited at the SGD.
	topBuckets, botBuckets comm.BucketPlan
	topBwdT, botBwdT       []float64
	topOff, botOff         []int
	layerBytes             []float64 // plan-construction scratch
	bktHandles             []cluster.Handle
	topBS, botBS           bucketState // per-iteration issue state (see bucketState)

	// loaderBufs is the staging storage behind the rank's data loader
	// (functional mode): the double-buffered RankBatch ring and, under the
	// global-read artifact, the full-minibatch buffer. Loader objects are
	// per-run; this memory persists with the workspace, so steady-state
	// batch production allocates nothing. Sized by fills, not by the key —
	// the ensure helpers inside grow monotonically like everything else
	// here.
	loaderBufs data.LoaderBuffers
}

// prepare sizes the workspace for one run: on a key change it rebuilds the
// table map and re-ensures every buffer for the new shape; on a key hit it
// only resets the handle list. Buffer growth is monotonic, so a sweep
// alternating shapes pays allocation only on first sight of each shape,
// never per iteration.
func (ws *DistWorkspace) prepare(dc *DistConfig, rank int) {
	key := distKey{
		ranks: dc.Ranks, globalN: dc.GlobalN,
		tables: dc.Cfg.Tables, strategy: dc.Variant.Strategy,
		functional: dc.RunCfg != nil,
	}
	if key.functional {
		key.embDim = dc.RunCfg.EmbDim
	}
	if key != ws.key {
		ws.resize(dc, key, rank)
		ws.key = key
	}
	ws.locT = ws.tablesByRank[rank]
	ws.handles = ws.handles[:0]
	ws.bwdHandles = ws.bwdHandles[:0]
}

// resize rebuilds the table map and re-ensures the strategy's buffers for a
// new key (every field of distKey feeds a size below, which is what makes
// the key the workspace's reuse unit).
func (ws *DistWorkspace) resize(dc *DistConfig, key distKey, rank int) {
	ws.tablesByRank = ws.tablesByRank[:0]
	for rk := 0; rk < key.ranks; rk++ {
		ws.tablesByRank = append(ws.tablesByRank, LocalTables(dc.Cfg, rk, key.ranks))
	}
	if !key.functional {
		return
	}

	e := key.embDim
	shardN := key.globalN / key.ranks
	rowLen := shardN * e
	nLoc := len(ws.tablesByRank[rank])
	maxLoc := MaxLocalTables(dc.Cfg, key.ranks)

	ws.embFull = ensureRows(&ws.embFull, nLoc, key.globalN*e)
	ws.dOutFull = ensureRows(&ws.dOutFull, nLoc, key.globalN*e)
	if len(ws.embOut) != key.tables {
		ws.embOut = make([][]float32, key.tables)
	}
	if len(ws.dW) != nLoc {
		ws.dW = make([][]float32, nLoc)
	}
	ws.dz = ensureF32(&ws.dz, shardN)

	switch key.strategy {
	case Alltoall:
		blockLen := maxLoc * rowLen
		ws.a2aSendF = ensureF32(&ws.a2aSendF, key.ranks*blockLen)
		ws.a2aRecvF = ensureF32(&ws.a2aRecvF, key.ranks*blockLen)
		ws.a2aSendB = ensureF32(&ws.a2aSendB, key.ranks*blockLen)
		ws.a2aRecvB = ensureF32(&ws.a2aRecvB, key.ranks*blockLen)
	case ScatterList:
		ws.scRecv = ensureRows(&ws.scRecv, key.tables, rowLen)
	case FusedScatter:
		// Per-root recv rows padded to the largest per-rank table count so
		// one rectangular allocation serves every root.
		ws.fsRecv = ensureRows(&ws.fsRecv, key.ranks, maxLoc*rowLen)
		ws.fsSend = ensureF32(&ws.fsSend, key.ranks*nLoc*rowLen)
		ws.gaSend = ensureF32(&ws.gaSend, maxLoc*rowLen)
		ws.gaRecv = ensureF32(&ws.gaRecv, key.ranks*nLoc*rowLen)
	}
}

// bindGrads sizes the flat MLP gradient buffers for this rank's model.
func (ws *DistWorkspace) bindGrads(m *Model) {
	ws.botGrad = ensureF32(&ws.botGrad, mlpGradLen(m.Bot))
	ws.topGrad = ensureF32(&ws.topGrad, mlpGradLen(m.Top))
}

// DistWorkspaces holds one DistWorkspace per simulated rank. Like
// cluster.Pools, a set passed through DistConfig persists across
// Run calls so figure sweeps and benchmarks reuse buffers; when
// DistConfig.Workspaces is nil each run builds (and abandons) its own.
type DistWorkspaces struct {
	mu sync.Mutex
	ws []*DistWorkspace
}

// NewDistWorkspaces returns an empty set; rank workspaces are created on
// first use.
func NewDistWorkspaces() *DistWorkspaces { return &DistWorkspaces{} }

// get returns rank's workspace, creating it on first use.
func (d *DistWorkspaces) get(rank int) *DistWorkspace {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.ws) <= rank {
		d.ws = append(d.ws, &DistWorkspace{})
	}
	return d.ws[rank]
}
