package cluster

import (
	"runtime"
	"sync"

	"repro/internal/par"
)

// Pools owns one persistent par.Pool per simulated rank — the NUMA-style
// "one worker team per socket" layout the paper's OpenMP runs pin. Pools
// are created lazily on first Rank.Pool, which only functional ranks call
// (a timing run never builds one), and persist across cluster.Run calls,
// so a loop of functional runs — the benchmark's — reuses the same worker
// goroutines for every run instead of spawning and draining a team per run.
//
// Ownership: whoever constructs a Pools closes it. cluster.Run closes only
// the transient set it creates itself when Config.Pools is nil; a shared
// set passed in by a driver stays alive until the driver's Close.
type Pools struct {
	mu    sync.Mutex
	pools []*par.Pool
	sizes []int
}

// NewPools returns an empty pool set; rank pools are created on first Get.
func NewPools() *Pools { return &Pools{} }

// Get returns rank's pool, creating it on first use with min(cores,
// GOMAXPROCS) workers (at least 1): `cores` is the socket's compute-core
// count — the T−S split with communication cores already excluded — and the
// GOMAXPROCS cap avoids parking worker goroutines the host could never run.
// A rank whose core count changes (e.g. an MPI run followed by a CCL run)
// gets its pool rebuilt at the new size.
func (ps *Pools) Get(rank, cores int) *par.Pool {
	want := cores
	if mx := runtime.GOMAXPROCS(0); want > mx {
		want = mx
	}
	if want < 1 {
		want = 1
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.pools) <= rank {
		ps.pools = append(ps.pools, nil)
		ps.sizes = append(ps.sizes, 0)
	}
	if ps.pools[rank] != nil && ps.sizes[rank] != want {
		ps.pools[rank].Close()
		ps.pools[rank] = nil
	}
	if ps.pools[rank] == nil {
		ps.pools[rank] = par.NewPool(want)
		ps.sizes[rank] = want
	}
	return ps.pools[rank]
}

// Close shuts down every created pool's workers. The set is reusable after
// Close (pools are simply recreated on the next Get).
func (ps *Pools) Close() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, p := range ps.pools {
		if p != nil {
			p.Close()
			ps.pools[i] = nil
			ps.sizes[i] = 0
		}
	}
}
