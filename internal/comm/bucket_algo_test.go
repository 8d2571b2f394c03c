package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

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

// TestSelectAlgosRecordsConcreteAlgos checks that SelectAlgos resolves
// AllreduceAuto to concrete per-bucket algorithms (never Auto itself) and
// copies a concrete request through unchanged.
func TestSelectAlgosRecordsConcreteAlgos(t *testing.T) {
	c := pricerAt(8)
	layers := []float64{4e3, 8e3, 64e6, 128e6}
	p := PlanBuckets(layers, 32e6)
	p.SelectAlgos(c, AllreduceAuto)
	for i, b := range p.Buckets {
		if b.Algo == AllreduceAuto {
			t.Errorf("bucket %d: Auto must resolve to a concrete algorithm", i)
		}
		if want, _ := c.BestAllreduceAlgo(b.Bytes); b.Algo != want {
			t.Errorf("bucket %d (%g bytes): selected %v, best is %v", i, b.Bytes, b.Algo, want)
		}
	}
	p.SelectAlgos(c, Hierarchical)
	for i, b := range p.Buckets {
		if b.Algo != Hierarchical {
			t.Errorf("bucket %d: concrete request not copied through (got %v)", i, b.Algo)
		}
	}
}

// TestAutoPlanNeverSlowerThanSingleAlgo is the per-bucket selection
// property: over ranks 2–8 on both modeled fabrics, for random layer-volume
// profiles and bucket sizes, the auto-selected plan's total modeled
// allreduce time is ≤ the same plan run under every single algorithm —
// per-bucket minima can only improve on any uniform choice.
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
					nLayers := 1 + rng.Intn(12)
					layers := make([]float64, nLayers)
					for i := range layers {
						// Volumes spanning the latency-bound to bandwidth-bound
						// regimes: 1 KB … 256 MB.
						layers[i] = float64(1<<10) * math.Pow(2, rng.Float64()*18)
					}
					bucketBytes := float64(0)
					if rng.Intn(4) > 0 {
						bucketBytes = float64(1<<16) * math.Pow(2, rng.Float64()*12)
					}
					p := PlanBuckets(layers, bucketBytes)
					p.SelectAlgos(c, AllreduceAuto)
					auto := p.ModeledTime(c)
					for _, a := range AllreduceAlgos {
						q := PlanBuckets(layers, bucketBytes)
						q.SelectAlgos(c, a)
						if single := q.ModeledTime(c); single < auto-1e-12 {
							t.Fatalf("trial %d: auto plan (%g) slower than uniform %v (%g); layers=%v bucket=%g",
								trial, auto, a, single, layers, bucketBytes)
						}
					}
				}
			})
		}
	}
}
