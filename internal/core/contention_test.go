package core

import (
	"math"
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

func runContentionCase(c contentionCase, contention bool) float64 {
	dc := distTestConfig(Large, 64, c.globalN, 1, Variant{Alltoall, cluster.CCLBackend}, false)
	dc.Sync = c.sync
	dc.BucketBytes = c.bb
	dc.Allreduce = c.algo
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

// TestContentionChargesOverlappedSchedules checks the tentpole's core
// effect: schedules that overlap collectives on distinct CCL channels slow
// down under contention-aware charging (the shared 2:1 trunk no longer
// carries three bucket allreduces for free), while the flat synchronous
// schedule — one collective in flight at a time — is priced identically,
// and the overlapped schedule keeps beating flat-sync even when charged
// honestly (the paper's overlap win shrinks but survives).
func TestContentionChargesOverlappedSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank Large runs")
	}
	results := map[string]struct{ off, on float64 }{}
	for _, c := range contentionCases() {
		off := runContentionCase(c, false)
		on := runContentionCase(c, true)
		if on < off {
			t.Errorf("%s: contention on %v faster than off %v", c.name, on, off)
		}
		results[c.name] = struct{ off, on float64 }{off, on}
	}
	if r := results["strong/flat-sync"]; r.on != r.off {
		t.Errorf("flat-sync must be unaffected by contention: off %v on %v", r.off, r.on)
	}
	if r := results["strong/bucketed"]; r.on <= r.off {
		t.Errorf("bucketed+overlapped must pay for the shared trunk: off %v on %v", r.off, r.on)
	}
	if results["strong/bucketed"].on >= results["strong/flat-sync"].on {
		t.Errorf("overlap win must survive contention: bucketed %v vs flat-sync %v",
			results["strong/bucketed"].on, results["strong/flat-sync"].on)
	}
	if results["weak/bucketed"].on >= results["weak/flat-sync"].on {
		t.Errorf("weak-scaling overlap win must survive contention: bucketed %v vs flat-sync %v",
			results["weak/bucketed"].on, results["weak/flat-sync"].on)
	}
}

// TestExposuresPropertyContention re-checks the Exposures() accounting
// invariants with contention-aware charging on: sharing stretches busy
// times, but busy must still split exactly into exposed + hidden and
// HiddenShare stay within [0, 1].
func TestExposuresPropertyContention(t *testing.T) {
	pools := cluster.NewPools()
	defer pools.Close()
	wss := NewDistWorkspaces()
	for _, strat := range []CommStrategy{ScatterList, FusedScatter, Alltoall} {
		for _, algo := range []comm.AllreduceAlgo{comm.RingRSAG, comm.Hierarchical, comm.AllreduceAuto} {
			for _, bucketBytes := range []int{FlatBuckets, 1 << 20} {
				dc := distTestConfig(Small, 8, Small.GlobalMB, 2, Variant{strat, cluster.CCLBackend}, false)
				dc.Sync = false
				dc.Allreduce = algo
				dc.BucketBytes = bucketBytes
				dc.Contention = true
				dc.Pools = pools
				dc.Workspaces = wss
				res := mustRun(dc)
				if len(res.Exposures()) == 0 {
					t.Fatalf("%v %v bucket=%d: no exposures recorded", strat, algo, bucketBytes)
				}
				for _, e := range res.Exposures() {
					if e.Busy < 0 || e.Exposed < 0 || e.Hidden < 0 {
						t.Fatalf("%v %v %s: negative component %+v", strat, algo, e.Label, e)
					}
					want := e.Busy - e.Exposed
					if want < 0 {
						want = 0
					}
					if math.Abs(e.Hidden-want) > 1e-12 {
						t.Fatalf("%v %v %s: hidden %.12f want %.12f (busy %.12f exposed %.12f)",
							strat, algo, e.Label, e.Hidden, want, e.Busy, e.Exposed)
					}
					if s := e.HiddenShare(); s < 0 || s > 1 {
						t.Fatalf("%v %v %s: hidden share %v outside [0,1]", strat, algo, e.Label, s)
					}
				}
			}
		}
	}
}

// TestInterferenceOverride pins the DistConfig.Interference knob the
// §VI-D1 contention figure uses: 1.0 disables the flat MPI interference
// factor (compute while communicating is not inflated), making the MPI run
// measurably faster than the default 1.3, while 0 keeps the default.
func TestInterferenceOverride(t *testing.T) {
	run := func(interf float64) float64 {
		dc := distTestConfig(Large, 16, Large.GlobalMB, 2, Variant{Alltoall, cluster.MPIBackend}, false)
		dc.Interference = interf
		return mustRun(dc).IterSeconds
	}
	def, none := run(0), run(1.0)
	if none >= def {
		t.Fatalf("interference 1.0 must beat the default 1.3: %g vs %g", none, def)
	}
	if run(1.3) != def {
		t.Fatal("explicit 1.3 must equal the default")
	}
}
