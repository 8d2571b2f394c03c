// Package autotune provides a small deterministic configuration searcher:
// successive halving over an enumerated candidate space, with cheap probes
// weeding out bad candidates before the full probe budget is spent on the
// contenders. It knows nothing about what a candidate is — callers supply
// an Objective mapping (candidate index, probe budget) to a cost.
package autotune

import (
	"sort"

	"repro/internal/rng"
)

// Objective evaluates candidate i at the given probe budget (iterations)
// and returns its cost; lower is better. It must be deterministic in
// (candidate, iters): Search relies on identical answers if it asks again,
// so memoize inside the Objective when evaluation is expensive.
type Objective func(candidate, iters int) float64

// Options bounds the search.
type Options struct {
	// ProbeIters is the probe budget of the first, cheapest round
	// (default 1).
	ProbeIters int
	// FinalIters is the probe budget of the deciding round (default
	// 4×ProbeIters). The budget doubles each round until it reaches this.
	FinalIters int
	// MaxCandidates caps how many candidates enter the first round; when
	// the space is larger, a uniform sample is drawn from the counter-based
	// stream seeded by Seed. Zero probes the full space.
	MaxCandidates int
	// Include lists candidate indices that bypass the sampling cap — e.g.
	// an incumbent configuration the caller wants a head-to-head against.
	Include []int
	// Seed seeds the sampling stream. Searches with equal (n, Options) are
	// bit-identical.
	Seed uint64
}

// Result reports the winning candidate.
type Result struct {
	Best     int     // winning candidate index (-1 when n == 0)
	BestCost float64 // its cost at the deciding round's budget
	Probes   int     // objective evaluations performed
	Pool     int     // candidates that entered the first round
}

// Search runs successive halving over candidates 0..n-1: every surviving
// candidate is probed at the current budget, the better half advances, and
// the budget doubles until it reaches FinalIters, where the minimum over
// the survivors wins (ties break toward the lower index). Cheap first-round
// probes pay for broad coverage; the full budget is spent only on the
// contenders.
func Search(n int, obj Objective, opt Options) Result {
	res := Result{Best: -1}
	if n <= 0 {
		return res
	}
	probe := opt.ProbeIters
	if probe <= 0 {
		probe = 1
	}
	final := opt.FinalIters
	if final <= 0 {
		final = 4 * probe
	}
	if final < probe {
		final = probe
	}
	pool := pickPool(n, opt)
	res.Pool = len(pool)
	costs := make([]float64, len(pool))
	iters := probe
	for {
		for i, c := range pool {
			costs[i] = obj(c, iters)
			res.Probes++
		}
		sort.Sort(byCost{pool, costs})
		if iters >= final {
			res.Best, res.BestCost = pool[0], costs[0]
			return res
		}
		if len(pool) > 1 {
			keep := (len(pool) + 1) / 2
			pool, costs = pool[:keep], costs[:keep]
		}
		iters *= 2
		if iters > final {
			iters = final
		}
	}
}

// byCost sorts the candidate pool and its parallel cost slice by ascending
// cost, ties toward the lower candidate index, so the ranking (and with it
// the whole search) is deterministic.
type byCost struct {
	pool  []int
	costs []float64
}

func (b byCost) Len() int { return len(b.pool) }
func (b byCost) Less(i, j int) bool {
	if b.costs[i] != b.costs[j] {
		return b.costs[i] < b.costs[j]
	}
	return b.pool[i] < b.pool[j]
}
func (b byCost) Swap(i, j int) {
	b.pool[i], b.pool[j] = b.pool[j], b.pool[i]
	b.costs[i], b.costs[j] = b.costs[j], b.costs[i]
}

// pickPool selects the first-round candidate set: all of 0..n-1 when the
// space fits the cap, otherwise a MaxCandidates-sized uniform sample
// (partial Fisher-Yates whose draw i is an rng.Stream keyed by Seed and i
// alone, so re-running a search replays it) with the forced
// includes appended. The pool is returned in ascending index order so the
// evaluation sequence is deterministic.
func pickPool(n int, opt Options) []int {
	if opt.MaxCandidates <= 0 || n <= opt.MaxCandidates {
		pool := make([]int, n)
		for i := range pool {
			pool[i] = i
		}
		return pool
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	k := opt.MaxCandidates
	for i := 0; i < k; i++ {
		g := rng.Stream(opt.Seed).Key(sampleTag).Key(uint64(i) * rng.Spread1)
		j := i + int(g.Next()%uint64(n-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	pool := idx[:k]
	for _, inc := range opt.Include {
		if inc < 0 || inc >= n || contains(pool, inc) {
			continue
		}
		pool = append(pool, inc)
	}
	sort.Ints(pool)
	return pool
}

// sampleTag keeps the searcher's draws disjoint from other streams keyed
// by the same seed.
const sampleTag = 0x53414D50 // "SAMP"

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
