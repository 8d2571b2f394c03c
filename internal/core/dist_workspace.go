package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

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
}

// DistWorkspace owns everything one functional rank reuses across distributed
// training iterations: the tensors the executor exchanges — the owned tables'
// bag outputs over the global batch and their assembled gradients, every
// table's shard rows and their gradients — plus the per-table sparse gradient
// buffers, the loss gradient, and the collectives' payloads. A payload is a
// segment list of views into those tensors and the model's gradient tensors
// (see comm.AllreduceSegs), built once per key, so a collective copies each
// row straight from the tensor that produces it into the one that consumes
// it. Together with the rank's persistent par.Pool this makes the
// steady-state functional iteration allocation-light.
//
// A DistWorkspace is owned by a DistWorkspaces set, or by a Trainer, and
// used by exactly one rank goroutine per run; it is not safe for concurrent
// use.
type DistWorkspace struct {
	key distKey

	locT []int // this rank's owned table ids (round-robin)

	// Functional-mode state; buffers are indexed by local table position li
	// (table id t = rank + li·ranks) unless noted.
	embFull  [][]float32 // owned-table bag outputs over the GLOBAL batch, GlobalN×E
	embOut   [][]float32 // per table id: this rank's shard rows, shardN×E
	dEmb     [][]float32 // per table id: their gradients, shardN×E
	dOutFull [][]float32 // owned-table assembled gradients, GlobalN×E
	dW       [][]float32 // owned-table per-lookup gradient rows
	dz       []float32   // loss gradient, length shardN

	// fwd and bwd are the redistribution collectives' payloads, one per
	// scatter group (one in all under Alltoall): embFull rows to embOut
	// forward, dEmb to dOutFull rows backward. grads lists each MLP's
	// gradient tensors, DW then DBias layer by layer (indexed topMLP,
	// botMLP; refilled per run, the model being per run), so an allreduce
	// bucket of layers lo..hi is grads[mlp][2·lo : 2·hi+2].
	fwd, bwd []stage
	grads    [2][][]float32

	// loaderBufs is the staging storage behind the rank's data loader
	// (functional mode): the double-buffered RankBatch ring. Loader objects
	// are per-run; this memory persists with the workspace, so steady-state
	// batch production allocates nothing. Sized by fills, not by the key —
	// the ensure helpers inside grow monotonically like everything else
	// here.
	loaderBufs data.LoaderBuffers
}

// prepare sizes the workspace for one functional run: on a key change it
// rebuilds the table lists and re-ensures every buffer for the new shape.
// Buffer growth is monotonic, so a sweep alternating shapes pays allocation
// only on first sight of each shape, never per iteration.
func (ws *DistWorkspace) prepare(dc *DistConfig, rank int) {
	key := distKey{
		ranks: dc.Ranks, globalN: dc.GlobalN,
		tables: dc.Cfg.Tables, embDim: dc.RunCfg.EmbDim, strategy: dc.Variant.Strategy,
	}
	if key != ws.key {
		ws.locT = LocalTables(dc.Cfg, rank, key.ranks)
		ws.resize(dc, key, rank)
		ws.key = key
	}
}

// resize re-ensures the executor's buffers for a new key (every field of
// distKey feeds a size below, which is what makes the key the workspace's
// reuse unit) and rebuilds the redistribution payloads over them. The
// alltoall carries MaxLocalTables slots per peer; a rank owning fewer tables
// sends and receives empty segments in the slots past its own.
func (ws *DistWorkspace) resize(dc *DistConfig, key distKey, rank int) {
	ranks, rowLen := key.ranks, key.globalN/key.ranks*key.embDim
	nLoc := len(ws.locT)
	ws.embFull = ensureRows(&ws.embFull, nLoc, key.globalN*key.embDim)
	ws.dEmb = ensureRows(&ws.dEmb, key.tables, rowLen)
	if ranks == 1 {
		// One rank owns every table (local position = table id) and its shard
		// is the whole batch: each redistribution's two sides are one tensor,
		// so the collectives move nothing.
		ws.embOut, ws.dOutFull = ws.embFull, ws.dEmb
	} else {
		if ws.key.ranks == 1 {
			ws.embOut, ws.dOutFull = nil, nil // drop the one-rank aliases
		}
		ws.dOutFull = ensureRows(&ws.dOutFull, nLoc, key.globalN*key.embDim)
		ws.embOut = ensureRows(&ws.embOut, key.tables, rowLen)
	}
	if len(ws.dW) != nLoc {
		ws.dW = make([][]float32, nLoc)
	}
	ws.dz = ensureF32(&ws.dz, key.globalN/key.ranks)

	if key.strategy == Alltoall {
		ws.fwd, ws.bwd = slices.Grow(ws.fwd[:0], 1)[:1], slices.Grow(ws.bwd[:0], 1)[:1]
		f, b, k := &ws.fwd[0], &ws.bwd[0], MaxLocalTables(dc.Cfg, ranks)
		f.send = ownerSegs(f.send[:0], ws.embFull, ws.locT, k, ranks, rowLen)
		b.recv = ownerSegs(b.recv[:0], ws.dOutFull, ws.locT, k, ranks, rowLen)
		f.recv, b.send = f.recv[:0], b.send[:0]
		for peer := range ranks {
			tabs := LocalTables(dc.Cfg, peer, ranks)
			f.recv = shardSegs(f.recv, ws.embOut, tabs, k)
			b.send = shardSegs(b.send, ws.dEmb, tabs, k)
		}
		return
	}
	// The scatter strategies: one scatter and one gather per group of
	// tables, all owned by the group's root.
	n, coalesce := dc.groups()
	ws.fwd, ws.bwd = slices.Grow(ws.fwd[:0], n)[:n], slices.Grow(ws.bwd[:0], n)[:n]
	for g := range n {
		tabs := []int{g}
		if coalesce {
			tabs = LocalTables(dc.Cfg, g, ranks)
		}
		f, b := &ws.fwd[g], &ws.bwd[g]
		f.recv = shardSegs(f.recv[:0], ws.embOut, tabs, len(tabs))
		b.send = shardSegs(b.send[:0], ws.dEmb, tabs, len(tabs))
		if TableOwner(tabs[0], ranks) != rank {
			f.send, b.recv = nil, nil // only the root's lists are read
			continue
		}
		f.send = ownerSegs(f.send[:0], ws.embFull, tabs, len(tabs), ranks, rowLen)
		b.recv = ownerSegs(b.recv[:0], ws.dOutFull, tabs, len(tabs), ranks, rowLen)
	}
}

// ownerSegs appends the owner's side of a redistribution: for every peer j
// and each of k slots, peer j's rows of the slot's table — rows[li] of table
// tabs[slot], rowLen floats from j·rowLen — or an empty segment past
// len(tabs).
func ownerSegs(segs, rows [][]float32, tabs []int, k, ranks, rowLen int) [][]float32 {
	for j := range ranks {
		for s := range k {
			var seg []float32
			if s < len(tabs) {
				seg = rows[LocalTableIndex(tabs[s], ranks)][j*rowLen : (j+1)*rowLen]
			}
			segs = append(segs, seg)
		}
	}
	return segs
}

// shardSegs appends a receiver's or sender's side: each of k slots' table's
// shard tensor (shard is indexed by table id), or an empty segment past
// len(tabs).
func shardSegs(segs, shard [][]float32, tabs []int, k int) [][]float32 {
	for s := range k {
		var seg []float32
		if s < len(tabs) {
			seg = shard[tabs[s]]
		}
		segs = append(segs, seg)
	}
	return segs
}

// DistWorkspaces holds one DistWorkspace per simulated rank. Like
// cluster.Pools, a set passed through DistConfig persists across Run calls,
// so a caller repeating one run (the benchmark's loops, autotune's probes)
// reuses its buffers; when DistConfig.Workspaces is nil each run builds
// (and abandons) its own. A set serves one Run at a time: a Run started
// while another holds it returns an error.
type DistWorkspaces struct {
	inUse atomic.Bool
	mu    sync.Mutex
	ws    []*DistWorkspace
	// handles are every rank's handle slots, rank-major, in one block (see
	// slots).
	handles []cluster.Handle
	// tally is every rank's accounting, one tally per rank (see tallies).
	tally []tally
}

var errInUse = errors.New("core: DistWorkspaces already in use by another Run; concurrent runs need one DistWorkspaces each")

// NewDistWorkspaces returns an empty set; rank workspaces are created on
// first use.
func NewDistWorkspaces() *DistWorkspaces { return &DistWorkspaces{} }

// slots returns n cleared handle slots, every rank's plan slots in one block
// (a zero Handle's Wait is free, which is what the first wait on a
// background drain relies on).
func (d *DistWorkspaces) slots(n int) []cluster.Handle {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handles = slices.Grow(d.handles[:0], n)[:n]
	clear(d.handles)
	return d.handles
}

// tallies returns n cleared tallies, one per rank of a run.
func (d *DistWorkspaces) tallies(n int) []tally {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tally = slices.Grow(d.tally[:0], n)[:n]
	clear(d.tally)
	return d.tally
}

// get returns rank's workspace, creating it on first use.
func (d *DistWorkspaces) get(rank int) *DistWorkspace {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.ws) <= rank {
		d.ws = append(d.ws, &DistWorkspace{})
	}
	return d.ws[rank]
}
