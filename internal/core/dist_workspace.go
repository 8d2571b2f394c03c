package core

import (
	"slices"
	"sync"

	"repro/internal/cluster"
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

// DistWorkspace owns everything one simulated rank reuses across distributed
// training iterations: the handle slots of the run's plan and, in functional
// mode, the executor's buffers — the coalesced send and receive blocks of both
// redistribution phases, the per-table embedding outputs and assembled
// gradient rows, the per-table sparse gradient buffers, the loss gradient, and
// the flat MLP gradient buffers behind the allreduces. Together with the
// rank's persistent par.Pool this makes the steady-state distributed
// iteration free of heap allocations in timing mode (enforced by
// dist_alloc_test.go) and allocation-light in functional mode.
//
// A DistWorkspace is owned by a DistWorkspaces set and used by exactly one
// rank goroutine per run; it is not safe for concurrent use.
type DistWorkspace struct {
	key distKey

	handles []cluster.Handle // the plan's handle slots
	locT    []int            // this rank's owned table ids (round-robin)

	// Functional-mode state; buffers are indexed by local table position li
	// (table id t = rank + li·ranks) unless noted.
	tablesByRank [][]int     // rank → owned table ids
	groups       [][]int     // scatter strategies: redistribution group → table ids
	embFull      [][]float32 // owned-table bag outputs over the GLOBAL batch, GlobalN×E
	embOut       [][]float32 // per table id: this rank's shard rows (views into the forward receives)
	dOutFull     [][]float32 // owned-table assembled gradients, GlobalN×E
	dW           [][]float32 // owned-table per-lookup gradient rows
	dz           []float32   // loss gradient, length shardN

	// Redistribution blocks. Alltoall: one padded block per peer, both ways.
	// FusedScatter: the root's coalesced forward send, the coalesced gradient
	// send and the root's gathered receive. ScatterList moves table rows in
	// place and uses none of the four.
	sendF, recvF, sendB, recvB []float32
	grpRecv                    [][]float32 // per scatter group: forward receive
	rowLen                     int         // one table's shard rows: shardN × E floats
	block                      int         // this rank's coalesced block in floats (0 under ScatterList)

	topGrad, botGrad []float32 // flat MLP gradients for the allreduces
	topOff, botOff   []int     // per-layer offsets into them

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
// table lists and re-ensures every buffer for the new shape. Buffer growth is
// monotonic, so a sweep alternating shapes pays allocation only on first
// sight of each shape, never per iteration.
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
		ws.locT = LocalTables(dc.Cfg, rank, key.ranks)
		if key.functional {
			ws.resize(dc, key)
		}
		ws.key = key
	}
}

// slots returns n cleared handle slots (a zero Handle's Wait is free, which
// is what the first wait on a background drain relies on).
func (ws *DistWorkspace) slots(n int) []cluster.Handle {
	ws.handles = slices.Grow(ws.handles[:0], n)[:n]
	clear(ws.handles)
	return ws.handles
}

// resize re-ensures the executor's buffers for a new key (every field of
// distKey feeds a size below, which is what makes the key the workspace's
// reuse unit) and points ws.embOut at where each table's shard rows land.
func (ws *DistWorkspace) resize(dc *DistConfig, key distKey) {
	ws.tablesByRank = ws.tablesByRank[:0]
	for rk := 0; rk < key.ranks; rk++ {
		ws.tablesByRank = append(ws.tablesByRank, LocalTables(dc.Cfg, rk, key.ranks))
	}
	rowLen := key.globalN / key.ranks * key.embDim
	ws.rowLen, ws.block = rowLen, 0
	nLoc := len(ws.locT)
	maxLoc := MaxLocalTables(dc.Cfg, key.ranks)

	ws.embFull = ensureRows(&ws.embFull, nLoc, key.globalN*key.embDim)
	ws.dOutFull = ensureRows(&ws.dOutFull, nLoc, key.globalN*key.embDim)
	if len(ws.embOut) != key.tables {
		ws.embOut = make([][]float32, key.tables)
	}
	if len(ws.dW) != nLoc {
		ws.dW = make([][]float32, nLoc)
	}
	ws.dz = ensureF32(&ws.dz, key.globalN/key.ranks)

	if key.strategy == Alltoall {
		blockLen := maxLoc * rowLen
		ws.block = blockLen
		for _, buf := range []*[]float32{&ws.sendF, &ws.recvF, &ws.sendB, &ws.recvB} {
			ensureF32(buf, key.ranks*blockLen)
		}
		for src, tabs := range ws.tablesByRank {
			for li, t := range tabs {
				ws.embOut[t] = ws.recvF[src*blockLen+li*rowLen : src*blockLen+(li+1)*rowLen]
			}
		}
		return
	}
	// The scatter strategies: one receive row per group, padded to the
	// largest group so one rectangular allocation serves every root.
	ws.groups = ws.tablesByRank
	widest := maxLoc
	if n, coalesce := dc.groups(); coalesce {
		ws.block = nLoc * rowLen
		ensureF32(&ws.sendF, key.ranks*nLoc*rowLen)
		ensureF32(&ws.sendB, maxLoc*rowLen)
		ensureF32(&ws.recvB, key.ranks*nLoc*rowLen)
	} else {
		ids := make([]int, n)
		ws.groups, widest = make([][]int, n), 1
		for t := range ids {
			ids[t] = t
			ws.groups[t] = ids[t : t+1]
		}
	}
	ws.grpRecv = ensureRows(&ws.grpRecv, len(ws.groups), widest*rowLen)
	for g, tabs := range ws.groups {
		for li, t := range tabs {
			ws.embOut[t] = ws.grpRecv[g][li*rowLen : (li+1)*rowLen]
		}
	}
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
