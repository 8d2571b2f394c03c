package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// contentionCase is one 64-rank Large-config schedule point with its
// committed PR 6 virtual baseline (ms/iter; the same values
// experiments.TestVirtualAnchors holds for the whole recipe).
type contentionCase struct {
	name    string
	sync    bool
	bb      int
	algo    comm.AllreduceAlgo
	globalN int
	want    float64 // contention-off baseline, exact
}

func contentionCases() []contentionCase {
	strong, weak := Large.GlobalMB, Large.LocalMB*64
	return []contentionCase{
		{"strong/bucketed", false, 0, comm.RingRSAG, strong, 306.21284941835825},
		{"strong/flat-sync", true, FlatBuckets, comm.RingRSAG, strong, 447.3348780622385},
		{"strong/overlap-flat", false, FlatBuckets, comm.RingRSAG, strong, 423.5374092622385},
		{"strong/overlap-hier", false, FlatBuckets, comm.Hierarchical, strong, 423.4114092622385},
		{"weak/bucketed", false, 0, comm.RingRSAG, weak, 546.6140738367169},
		{"weak/flat-sync", true, FlatBuckets, comm.RingRSAG, weak, 615.5257685084057},
	}
}

func (c contentionCase) config() DistConfig {
	dc := distTestConfig(Large, 64, c.globalN, 1, Variant{Alltoall, cluster.CCLBackend}, false)
	dc.Sync = c.sync
	dc.BucketBytes = c.bb
	dc.Allreduce = c.algo
	return dc
}

func runContentionCase(c contentionCase, contention bool) float64 {
	dc := c.config()
	dc.Contention = contention
	return mustRun(dc).IterSeconds * 1e3
}

// TestContentionOffBitIdenticalToBaselines pins the knob's default: with
// Contention off, every strategy/schedule/algorithm combination must
// reproduce the committed PR 6 virtual numbers bit-identically — the
// contention machinery may not perturb the isolated pricing path at all.
func TestContentionOffBitIdenticalToBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank Large runs")
	}
	for _, c := range contentionCases() {
		if got := runContentionCase(c, false); got != c.want {
			t.Errorf("%s: contention off %v ms/iter, want committed baseline %v", c.name, got, c.want)
		}
	}
}

// TestContentionFreeUnderMPI: MPI's single in-order channel never has two
// collectives in flight, so the contention epoch has nothing to charge —
// over the MPI rows of the timing sample, a run with contention on gives
// the DistResult of the run with it off, bit for bit.
func TestContentionFreeUnderMPI(t *testing.T) {
	n := 0
	for _, p := range timingSample {
		if allVariants[p.at[axVariant]].Backend != cluster.MPIBackend {
			continue
		}
		n++
		var hash [2]string
		for c := range hash {
			p.at[axContention] = c
			hash[c] = timingHash(mustRun(p.config()))
		}
		if hash[0] != hash[1] {
			t.Errorf("%s: contention on prices the run differently", label(p.config()))
		}
	}
	if n == 0 {
		t.Fatal("no MPI row in the timing sample")
	}
}
