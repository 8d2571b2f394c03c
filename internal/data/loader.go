package data

import (
	"fmt"

	"repro/internal/embedding"
)

// RankBatch is what one rank consumes each iteration under the paper's
// hybrid parallelism: its N/R sample shard (dense features, labels, and the
// shard's bags for every table — the data-parallel inputs), plus, for each
// embedding table the rank owns under model parallelism, that table's bags
// over the FULL global minibatch (the model-parallel inputs the alltoall
// redistributes). Owned is indexed by local table position, matching the
// order of the owned-table id list the loader was built with.
type RankBatch struct {
	Iter  int
	Local *MiniBatch
	Owned []*embedding.Batch

	// store backs Owned: the loader fills the owned columns into it.
	store []embedding.Batch
}

// LoaderConfig describes the slice of a dataset one rank's loader serves.
type LoaderConfig struct {
	DS      Dataset
	GlobalN int // global minibatch size N
	Rank    int // this rank r
	Ranks   int // rank count R (0 ⇒ 1)
	// Owned lists the table ids this rank owns under model parallelism;
	// their full-batch columns are materialized into RankBatch.Owned. nil
	// for pure data parallelism (single socket).
	Owned []int
	// Start is the first batch index served (batch indices feed
	// Dataset.FillRange, so a loader can resume mid-stream).
	Start int
	// Buffers optionally supplies persistent staging storage. Loaders are
	// cheap, per-run objects; the buffers are where the batch memory lives.
	// Passing the same LoaderBuffers to successive loaders (as the
	// per-rank distributed workspaces do) makes every fill after the first
	// run reuse storage. nil ⇒ the loader owns private buffers.
	Buffers *LoaderBuffers
}

// ShardRange returns the half-open sample range [lo, hi) of the global
// minibatch that rank `rank` of `ranks` reads — the sharding contract the
// sharded loader and the elastic resharding checks share. For any rank count the ranges are contiguous, non-overlapping,
// and exactly partition [0, globalN), so after a failure redistributes data
// shards (R → R−1) the survivors' slices still cover every sample once.
func ShardRange(globalN, rank, ranks int) (lo, hi int) {
	return globalN * rank / ranks, globalN * (rank + 1) / ranks
}

func (c *LoaderConfig) normalize() {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Rank < 0 || c.Rank >= c.Ranks {
		panic(fmt.Sprintf("data: loader rank %d of %d", c.Rank, c.Ranks))
	}
	if c.Buffers == nil {
		c.Buffers = &LoaderBuffers{}
	}
	for k := range c.Buffers.ring {
		c.Buffers.ring[k].Local = &c.Buffers.local[k]
	}
}

// LoaderBuffers owns the staging storage loaders fill batches into: the two
// RankBatch slots a double-buffered loader cycles through. A LoaderBuffers
// outlives the (cheap) loader objects borrowing it — e.g. across the many
// DistConfig.Run calls of a figure sweep — so steady-state batch production
// allocates nothing. It may back at most one live loader at a time.
type LoaderBuffers struct {
	local [2]MiniBatch
	ring  [2]RankBatch
}

// bindOwnedStore points Owned at nOwned batches of this slot's private
// backing storage (growing it monotonically, a struct copy preserving each
// batch's slices).
func (rb *RankBatch) bindOwnedStore(nOwned int) {
	if len(rb.Owned) != nOwned {
		rb.Owned = make([]*embedding.Batch, nOwned)
	}
	if len(rb.store) < nOwned {
		grown := make([]embedding.Batch, nOwned)
		copy(grown, rb.store)
		rb.store = grown
	}
	for i := 0; i < nOwned; i++ {
		rb.Owned[i] = &rb.store[i]
	}
}

// ShardedLoader is the fixed data pipeline: each rank reads ONLY its N/R
// sample slice (sparse offsets rebased at the source) plus its owned
// tables' full-batch columns — ≈2/R of the global batch instead of the
// §VI-D2 artifact's full read — and production is double-buffered: a
// Prefetch ring over the two RankBatch slots of the loader's LoaderBuffers
// fills one while the trainer consumes the other, so generation overlaps
// compute. Next returns the next iteration's batch, valid until the
// following Next; Close stops the fills and waits for them, so a successor
// loader borrowing the same LoaderBuffers (the per-rank workspaces hand one
// across runs) never observes a stale fill. A panic in a fill comes out of
// Next or Close on the caller. After the two staging buffers have reached
// steady-state capacity, Next performs zero heap allocations (enforced by
// loader_alloc_test.go).
type ShardedLoader = Prefetch[RankBatch]

// NewShardedLoader starts the prefetch pipeline for one rank.
func NewShardedLoader(c LoaderConfig) *ShardedLoader {
	c.normalize()
	lo, hi := ShardRange(c.GlobalN, c.Rank, c.Ranks)
	return NewPrefetch(c.Buffers.ring[:], -1, func(j int, rb *RankBatch) {
		it := c.Start + j
		rb.Iter = it
		c.DS.FillRange(it, c.GlobalN, lo, hi, rb.Local)
		rb.bindOwnedStore(len(c.Owned))
		for li, t := range c.Owned {
			c.DS.FillTableColumn(it, c.GlobalN, t, 0, c.GlobalN, rb.Owned[li])
		}
	})
}

// NewBatchLoader returns a single-rank streaming loader over ds — a
// prefetching, buffer-reusing replacement for calling ds.Batch in a
// training loop — starting at batch index start with n samples per batch.
func NewBatchLoader(ds Dataset, n, start int) *ShardedLoader {
	return NewShardedLoader(LoaderConfig{DS: ds, GlobalN: n, Start: start})
}
