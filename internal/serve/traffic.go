package serve

import (
	"math"

	"repro/internal/rng"
)

// Counter-based Poisson arrivals.
//
// The request stream follows the data package's per-sample RNG discipline:
// every interarrival gap is a pure function of (seed, request index), so
// arrival time k never depends on having generated 0..k-1 in order, runs
// are bit-reproducible whatever the workspace carried before, and two runs
// over different request counts see the same arrival prefix — the property
// the differencing allocation tests lean on.

// interarrival returns the exponential gap (seconds) in front of request i
// of a Poisson stream with the given rate.
func interarrival(seed int64, i int, qps float64) float64 {
	// Two mixing rounds so adjacent request indices land in unrelated
	// states.
	g := rng.Stream(rng.Mix(uint64(seed)^0x53657276) + uint64(i))
	// A uniform in [0, 1); -log1p(-f) is then finite and non-negative.
	return -math.Log1p(-g.Float64()) / qps
}
