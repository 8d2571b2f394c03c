// Allocation-regression tests for the streaming loader, the data-pipeline
// sibling of internal/core/dist_alloc_test.go: once the staging buffers
// have reached steady-state capacity, producing a per-rank batch must
// perform zero heap allocations, so data loading adds no GC pressure to
// the zero-allocation training iteration PRs 1–2 established. The producer
// runs on its own goroutine, so per-batch allocations are measured by
// differencing whole loader sessions of different lengths
// (testing.AllocsPerRun counts mallocs process-wide): the fixed per-session
// overhead — loader struct, channels, goroutine — cancels and only the
// steady-state per-batch cost remains.
package data

import (
	"testing"

	"repro/internal/testenv"
)

// loaderAllocsPerBatch returns the marginal allocations per Next after
// warmup, for a loader over ds with the given owned tables.
func loaderAllocsPerBatch(t *testing.T, ds Dataset, globalN int, owned []int) float64 {
	t.Helper()
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	bufs := &LoaderBuffers{}
	run := func(batches int) func() {
		return func() {
			ld := NewShardedLoader(LoaderConfig{
				DS: ds, GlobalN: globalN, Rank: 1, Ranks: 4, Owned: owned, Buffers: bufs,
			})
			for k := 0; k < batches; k++ {
				ld.Next()
			}
			ld.Close()
		}
	}
	const short, long = 2, 12
	run(long)() // warmup: sizes the staging buffers, fills sudog pools
	aShort := testing.AllocsPerRun(5, run(short))
	aLong := testing.AllocsPerRun(5, run(long))
	return (aLong - aShort) / float64(long-short)
}

// TestShardedLoaderSteadyStateZeroAllocs pins the loader half of the
// zero-allocation invariant for every dataset kind, with and without
// owned-table column reads.
func TestShardedLoaderSteadyStateZeroAllocs(t *testing.T) {
	for name, ds := range testDatasets(t) {
		owned := []int{0, ds.NumTables() - 1}
		if got := loaderAllocsPerBatch(t, ds, 24, owned); got != 0 {
			t.Errorf("%s: %v allocs per steady-state batch, want 0", name, got)
		}
		if got := loaderAllocsPerBatch(t, ds, 24, nil); got != 0 {
			t.Errorf("%s (no owned): %v allocs per steady-state batch, want 0", name, got)
		}
	}
}
