package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// pricerAt is the cost model the algorithm tests query: the OPA fat-tree at
// the given size, no cluster needed.
func pricerAt(ranks int) *Pricer {
	return NewPricer(fabric.NewPrunedFatTree(ranks, 12.5e9), ranks)
}

func TestAllreduceAlgoLargeMessageRingWins(t *testing.T) {
	c := pricerAt(16)
	const bytes = 1e9 // 1 GB: bandwidth-dominated
	ring := c.AllreduceTimeAlgo(RingRSAG, bytes)
	rh := c.AllreduceTimeAlgo(RecursiveHalving, bytes)
	flat := c.AllreduceTimeAlgo(FlatTree, bytes)
	if ring > rh*1.05 {
		t.Fatalf("ring (%g) should not lose to recursive halving (%g) at 1 GB", ring, rh)
	}
	if flat < 2*ring {
		t.Fatalf("flat tree (%g) must be far worse than ring (%g): root link serializes", flat, ring)
	}
}

func TestAllreduceAlgoSmallMessageLatencyMatters(t *testing.T) {
	c := pricerAt(32)
	const bytes = 4e3 // 4 KB: latency-dominated
	ring := c.AllreduceTimeAlgo(RingRSAG, bytes)
	rh := c.AllreduceTimeAlgo(RecursiveHalving, bytes)
	// Ring pays 2(R−1)=62 latencies; recursive halving 2·log2(32)=10.
	if rh > ring {
		t.Fatalf("recursive halving (%g) should beat ring (%g) for tiny messages", rh, ring)
	}
}

func TestBestAllreduceAlgoPicksMinimum(t *testing.T) {
	c := pricerAt(16)
	for _, bytes := range []float64{1e3, 1e6, 1e9} {
		algo, best := c.BestAllreduceAlgo(bytes)
		for _, a := range AllreduceAlgos {
			if tt := c.AllreduceTimeAlgo(a, bytes); tt < best-1e-15 {
				t.Fatalf("BestAllreduceAlgo(%g) picked %v (%g) but %v is faster (%g)",
					bytes, algo, best, a, tt)
			}
		}
	}
}

func TestAllreduceAlgoSingleRankFree(t *testing.T) {
	c := pricerAt(1)
	for _, a := range AllreduceAlgos {
		if c.AllreduceTimeAlgo(a, 1e9) != 0 {
			t.Fatalf("%v: single-rank allreduce must be free", a)
		}
	}
}

func TestAllreduceAlgoNames(t *testing.T) {
	tags := map[string]bool{}
	for _, a := range append(AllreduceAlgos, AllreduceAuto) {
		if a.String() == "" || a.String() == "unknown" {
			t.Fatalf("algo %d has no name", int(a))
		}
		if tag := a.ShortString(); tag == "?" || tags[tag] {
			t.Fatalf("algo %v has tag %q, missing or shared", a, tag)
		}
		tags[a.ShortString()] = true
	}
	if AllreduceAlgo(99).String() != "unknown" || AllreduceAlgo(99).ShortString() != "?" {
		t.Fatal("unknown algo name")
	}
}

// TestHierarchicalBeatsRingOnFatTree pins the two-level algorithm's win:
// same total volume as the flat ring but 2(G−1)+2(R/G−1) phases instead of
// 2(R−1), so the per-phase latency term halves at G=2 — strictly faster on
// the OPA fat-tree at every volume, with the gap largest when latency
// dominates.
func TestHierarchicalBeatsRingOnFatTree(t *testing.T) {
	c := pricerAt(64)
	for _, bytes := range []float64{4e3, 9.5e6, 1e9} {
		ring := c.AllreduceTimeAlgo(RingRSAG, bytes)
		hier := c.AllreduceTimeAlgo(Hierarchical, bytes)
		if hier >= ring {
			t.Errorf("hierarchical (%g) must strictly beat ring (%g) at %g bytes", hier, ring, bytes)
		}
	}
	small := c.AllreduceTimeAlgo(Hierarchical, 4e3) / c.AllreduceTimeAlgo(RingRSAG, 4e3)
	large := c.AllreduceTimeAlgo(Hierarchical, 1e9) / c.AllreduceTimeAlgo(RingRSAG, 1e9)
	if small >= large {
		t.Errorf("hierarchical advantage should shrink as bandwidth dominates: ratio %.3f (4KB) vs %.3f (1GB)", small, large)
	}
}

// TestHierarchicalFallsBackToRing documents the group rule: with no even
// node grouping (odd or trivial rank counts) the hierarchical algorithm
// degenerates to the plain ring, charging the identical time.
func TestHierarchicalFallsBackToRing(t *testing.T) {
	for _, ranks := range []int{2, 7} {
		c := pricerAt(ranks)
		ring := c.AllreduceTimeAlgo(RingRSAG, 1e6)
		hier := c.AllreduceTimeAlgo(Hierarchical, 1e6)
		if hier != ring {
			t.Errorf("%dR: hierarchical (%g) must equal ring (%g) without an even grouping", ranks, hier, ring)
		}
	}
	if g := HierGroupSize(2); g != 1 {
		t.Errorf("HierGroupSize(2) = %d, want 1 (a 2-rank ring has nothing to nest)", g)
	}
	if g := HierGroupSize(64); g != 2 {
		t.Errorf("HierGroupSize(64) = %d, want 2 (dual-socket nodes)", g)
	}
}

// TestBinaryTreeTradeoffs pins the NCCL-style double binary tree to its
// regime: depth-many pipelined phases beat the ring's 2(R−1) latencies on
// tiny messages, while the interior fan-in keeps it behind the ring (but
// far ahead of the untuned flat tree) on bandwidth-bound volumes.
func TestBinaryTreeTradeoffs(t *testing.T) {
	c := pricerAt(64)
	const tiny, huge = 4e3, 1e9
	if tree, ring := c.AllreduceTimeAlgo(BinaryTree, tiny), c.AllreduceTimeAlgo(RingRSAG, tiny); tree >= ring {
		t.Errorf("binary tree (%g) must beat ring (%g) on 4KB: 2log2(R) phases vs 2(R-1)", tree, ring)
	}
	tree, ring := c.AllreduceTimeAlgo(BinaryTree, huge), c.AllreduceTimeAlgo(RingRSAG, huge)
	flat := c.AllreduceTimeAlgo(FlatTree, huge)
	if tree <= ring {
		t.Errorf("binary tree (%g) should trail ring (%g) on 1GB: 2-child fan-in caps bandwidth", tree, ring)
	}
	if tree >= flat/4 {
		t.Errorf("binary tree (%g) must be far ahead of the flat tree (%g) on 1GB", tree, flat)
	}
}

// TestAllreduceAlgoPositiveAcrossRanks guards the flow construction of the
// new algorithms over awkward sizes (odd, non-power-of-two, minimum).
func TestAllreduceAlgoPositiveAcrossRanks(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 6, 26, 64} {
		c := pricerAt(ranks)
		for _, a := range AllreduceAlgos {
			if d := c.AllreduceTimeAlgo(a, 1e6); d <= 0 {
				t.Errorf("%dR %v: non-positive duration %g", ranks, a, d)
			}
		}
	}
}

// TestAutoAllreduceTimeIsMinimum pins the AllreduceAuto cost to the
// BestAllreduceAlgo minimum across volumes and rank counts.
func TestAutoAllreduceTimeIsMinimum(t *testing.T) {
	for _, ranks := range []int{2, 8, 64} {
		c := pricerAt(ranks)
		for _, bytes := range []float64{4e3, 1e6, 1e9} {
			auto := c.AllreduceTimeAlgo(AllreduceAuto, bytes)
			_, best := c.BestAllreduceAlgo(bytes)
			if auto != best {
				t.Errorf("%dR %g bytes: auto charge %g != best algo %g", ranks, bytes, auto, best)
			}
			for _, a := range AllreduceAlgos {
				if tt := c.AllreduceTimeAlgo(a, bytes); tt < auto-1e-15 {
					t.Errorf("%dR %g bytes: %v (%g) beats auto (%g)", ranks, bytes, a, tt, auto)
				}
			}
		}
	}
}

// TestAutoPlanNeverSlowerThanSingleAlgo is the per-bucket selection
// property: over ranks 2–8 on both modeled fabrics, for random layer-volume
// profiles and bucket sizes, a bucket plan priced the way the engine prices
// it under AllreduceAuto — each bucket at its own volume's cheapest
// algorithm — is never slower in total than the same plan under any single
// algorithm: per-bucket minima can only improve on a uniform choice.
func TestAutoPlanNeverSlowerThanSingleAlgo(t *testing.T) {
	fabrics := []struct {
		name string
		mk   func(ranks int) fabric.Topology
	}{
		{"fat-tree", func(ranks int) fabric.Topology { return fabric.NewPrunedFatTree(ranks, 12.5e9) }},
		{"twisted-hypercube", func(int) fabric.Topology { return fabric.NewTwistedHypercube(22e9) }},
	}
	for _, fb := range fabrics {
		for ranks := 2; ranks <= 8; ranks++ {
			t.Run(fmt.Sprintf("%s/%dR", fb.name, ranks), func(t *testing.T) {
				c := NewPricer(fb.mk(ranks), ranks)
				rng := rand.New(rand.NewSource(int64(ranks)))
				for trial := 0; trial < 20; trial++ {
					layers := make([]float64, 1+rng.Intn(12))
					for i := range layers {
						// Volumes spanning the latency-bound to bandwidth-bound
						// regimes: 1 KB … 256 MB.
						layers[i] = float64(1<<10) * math.Pow(2, rng.Float64()*18)
					}
					bucketBytes := float64(0)
					if rng.Intn(4) > 0 {
						bucketBytes = float64(1<<16) * math.Pow(2, rng.Float64()*12)
					}
					price := func(algo AllreduceAlgo) (total float64) {
						for _, b := range PlanBuckets(layers, bucketBytes).Buckets {
							total += c.AllreduceTimeAlgo(algo, b.Bytes)
						}
						return total
					}
					auto := price(AllreduceAuto)
					for _, a := range AllreduceAlgos {
						if single := price(a); single < auto-1e-12 {
							t.Fatalf("trial %d: auto plan (%g) slower than uniform %v (%g); layers=%v bucket=%g",
								trial, auto, a, single, layers, bucketBytes)
						}
					}
				}
			})
		}
	}
}
