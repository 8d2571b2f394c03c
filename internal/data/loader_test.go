package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/embedding"
)

// testDatasets returns one instance of every Dataset implementation, all
// with ragged-friendly shapes (uneven row counts, multi-lookup bags).
func testDatasets(t *testing.T) map[string]Dataset {
	t.Helper()
	rows := []int{1000, 37, 4, 2100}
	click := NewClickLog(11, 6, rows, 3)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, click, 96, 24, 3); err != nil {
		t.Fatal(err)
	}
	file, err := OpenFileDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Dataset{
		"Random":   &Random{Seed: 5, D: 8, Tables: 3, Rows: 64, Lookups: 4},
		"ClickLog": click,
		"File":     file,
	}
}

func sameBatchSlice(t *testing.T, label string, global *MiniBatch, gLo int, shard *MiniBatch) {
	t.Helper()
	d := global.Dense.Cols
	for s := 0; s < shard.N; s++ {
		if shard.Labels[s] != global.Labels[gLo+s] {
			t.Fatalf("%s: label %d mismatch", label, s)
		}
		for c := 0; c < d; c++ {
			if shard.Dense.At(s, c) != global.Dense.At(gLo+s, c) {
				t.Fatalf("%s: dense (%d,%d) mismatch", label, s, c)
			}
		}
	}
	for ti := range global.Sparse {
		sameColumnSlice(t, fmt.Sprintf("%s table %d", label, ti), global.Sparse[ti], gLo, shard.Sparse[ti], shard.N)
	}
}

func sameColumnSlice(t *testing.T, label string, g *embedding.Batch, gLo int, b *embedding.Batch, n int) {
	t.Helper()
	if b.NumBags() != n {
		t.Fatalf("%s: %d bags want %d", label, b.NumBags(), n)
	}
	if b.Offsets[0] != 0 {
		t.Fatalf("%s: offsets not rebased (start %d)", label, b.Offsets[0])
	}
	for s := 0; s < n; s++ {
		sLo, sHi := b.Offsets[s], b.Offsets[s+1]
		gL, gH := g.Offsets[gLo+s], g.Offsets[gLo+s+1]
		if sHi-sLo != gH-gL {
			t.Fatalf("%s: bag %d size %d want %d", label, s, sHi-sLo, gH-gL)
		}
		for k := int32(0); k < sHi-sLo; k++ {
			if b.Indices[sLo+k] != g.Indices[gL+k] {
				t.Fatalf("%s: bag %d index %d mismatch", label, s, k)
			}
		}
	}
}

// TestFillRangeReassemblesGlobalBatch is the sharding property test: for
// every dataset and random rank counts 2–8, the concatenation of the
// per-rank FillRange slices must reproduce Dataset.Batch exactly — dense
// features, labels, and sparse offsets/indices — including the uneven
// shard boundaries a non-divisible N produces.
func TestFillRangeReassemblesGlobalBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for name, ds := range testDatasets(t) {
		for trial := 0; trial < 6; trial++ {
			R := 2 + rng.Intn(7) // 2..8
			n := 16 + rng.Intn(80)
			it := rng.Intn(5)
			global := ds.Batch(it, n)
			shard := &MiniBatch{} // reused across ranks: catches stale-buffer bugs
			covered := 0
			for r := 0; r < R; r++ {
				lo, hi := n*r/R, n*(r+1)/R
				ds.FillRange(it, n, lo, hi, shard)
				if shard.N != hi-lo {
					t.Fatalf("%s R=%d rank %d: shard size %d want %d", name, R, r, shard.N, hi-lo)
				}
				sameBatchSlice(t, fmt.Sprintf("%s R=%d rank %d", name, R, r), global, lo, shard)
				covered += shard.N
			}
			if covered != n {
				t.Fatalf("%s R=%d: shards cover %d of %d samples", name, R, covered, n)
			}
		}
	}
}

// TestFillTableColumnMatchesBatch checks the model-parallel column read: a
// table owner regenerating one table's bags over any sample range must get
// exactly the global batch's column.
func TestFillTableColumnMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, ds := range testDatasets(t) {
		n := 48
		global := ds.Batch(3, n)
		col := &embedding.Batch{}
		for ti := 0; ti < ds.NumTables(); ti++ {
			for trial := 0; trial < 4; trial++ {
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				ds.FillTableColumn(3, n, ti, lo, hi, col)
				sameColumnSlice(t, fmt.Sprintf("%s col %d [%d,%d)", name, ti, lo, hi),
					global.Sparse[ti], lo, col, hi-lo)
			}
		}
	}
}

// TestShardedLoaderMatchesGlobalBatch drives the full loader: per-rank
// ShardedLoaders must stream batches whose concatenation reproduces the
// global batch sequence, with owned-table columns equal to the global
// batch's columns.
func TestShardedLoaderMatchesGlobalBatch(t *testing.T) {
	for name, ds := range testDatasets(t) {
		const R, n, iters = 3, 30, 4
		owned := make([][]int, R)
		for ti := 0; ti < ds.NumTables(); ti++ {
			owned[ti%R] = append(owned[ti%R], ti)
		}
		loaders := make([]*ShardedLoader, R)
		for r := 0; r < R; r++ {
			loaders[r] = NewShardedLoader(LoaderConfig{
				DS: ds, GlobalN: n, Rank: r, Ranks: R, Owned: owned[r], Start: 1,
			})
			defer loaders[r].Close()
		}
		for it := 1; it <= iters; it++ {
			global := ds.Batch(it, n)
			for r := 0; r < R; r++ {
				rb := loaders[r].Next()
				if rb.Iter != it {
					t.Fatalf("%s rank %d: iter %d want %d", name, r, rb.Iter, it)
				}
				sameBatchSlice(t, fmt.Sprintf("%s rank %d iter %d", name, r, it), global, n*r/R, rb.Local)
				for li, ti := range owned[r] {
					sameColumnSlice(t, fmt.Sprintf("%s rank %d owned %d", name, r, ti),
						global.Sparse[ti], 0, rb.Owned[li], n)
				}
			}
		}
	}
}

// TestLoaderBuffersReuseAcrossLoaders checks the cross-run story the
// distributed workspaces rely on: successive loaders borrowing one
// LoaderBuffers — owning one table, then two, then one again, each resuming
// at a later batch — keep producing correct batches.
func TestLoaderBuffersReuseAcrossLoaders(t *testing.T) {
	ds := NewClickLog(3, 4, []int{120, 60}, 2)
	bufs := &LoaderBuffers{}
	const R, n = 2, 20
	for round, owned := range [][]int{{0}, {0, 1}, {1}} {
		ld := NewShardedLoader(LoaderConfig{DS: ds, GlobalN: n, Rank: 0, Ranks: R, Owned: owned, Start: round, Buffers: bufs})
		for it := round; it < round+3; it++ {
			rb := ld.Next()
			global := ds.Batch(it, n)
			sameBatchSlice(t, fmt.Sprintf("round %d iter %d", round, it), global, 0, rb.Local)
			for li, ti := range owned {
				sameColumnSlice(t, fmt.Sprintf("round %d owned %d", round, ti), global.Sparse[ti], 0, rb.Owned[li], n)
			}
		}
		ld.Close()
	}
}

// panicFill is a dataset whose every FillRange panics.
type panicFill struct{ Dataset }

func (panicFill) FillRange(i, n, lo, hi int, mb *MiniBatch) { panic("panicFill: fill panics") }

// TestLoaderFillPanicReachesCaller: a loader fill's panic, on the prefetch
// goroutine, comes out of Next on the caller, where it can be recovered, and
// Close then only joins.
func TestLoaderFillPanicReachesCaller(t *testing.T) {
	ld := NewBatchLoader(panicFill{NewClickLog(3, 4, []int{120, 60}, 2)}, 8, 0)
	if p := mustPanic(t, func() { ld.Next() }); p != "panicFill: fill panics" {
		t.Fatalf("Next panicked with %v", p)
	}
	ld.Close()
}

func TestShardRangePartitions(t *testing.T) {
	// The sharding contract the elastic layer leans on: for every rank
	// count (including the R-1 shapes a failure rescales to, and globalN
	// not divisible by ranks), the per-rank ranges are contiguous,
	// non-overlapping, and exactly cover [0, globalN).
	for _, globalN := range []int{1, 7, 48, 64, 840, 2048} {
		for ranks := 1; ranks <= 9 && ranks <= globalN; ranks++ {
			next := 0
			for r := 0; r < ranks; r++ {
				lo, hi := ShardRange(globalN, r, ranks)
				if lo != next {
					t.Fatalf("N=%d R=%d: rank %d starts at %d, want %d", globalN, ranks, r, lo, next)
				}
				if hi < lo {
					t.Fatalf("N=%d R=%d: rank %d has negative range [%d,%d)", globalN, ranks, r, lo, hi)
				}
				next = hi
			}
			if next != globalN {
				t.Fatalf("N=%d R=%d: ranges end at %d, want %d", globalN, ranks, next, globalN)
			}
		}
	}
}
