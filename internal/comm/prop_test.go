// Property tests for the collectives: every data-moving primitive is
// checked against a naive single-threaded reference over random rank
// counts (2–8) and payload sizes. These pin the rewritten leader protocol
// (caller-owned receive buffers, reduction into rank 0's buffer, recycled
// rendezvous slots) to the mathematical definition of each collective, and
// TestCollectivesConcurrentStress is sized to run under -race in CI.
package comm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// randInputs builds one random []float32 per rank.
func randInputs(rng *rand.Rand, ranks, n int) [][]float32 {
	in := make([][]float32, ranks)
	for i := range in {
		in[i] = make([]float32, n)
		for j := range in[i] {
			in[i][j] = rng.Float32()*2 - 1
		}
	}
	return in
}

func TestAllreducePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(7) // 2..8
		n := 1 + rng.Intn(200)
		avg := rng.Intn(2) == 0
		in := randInputs(rng, ranks, n)

		want := make([]float64, n)
		for _, v := range in {
			for j, x := range v {
				want[j] += float64(x)
			}
		}
		if avg {
			for j := range want {
				want[j] /= float64(ranks)
			}
		}
		runComm(t, ranks, cluster.CCLBackend, func(c *Comm) {
			buf := append([]float32(nil), in[c.Rank()]...)
			h := c.Allreduce("ar", buf, avg)
			c.R.Wait(h)
			for j := range buf {
				if math.Abs(float64(buf[j])-want[j]) > 1e-4 {
					t.Errorf("trial %d ranks=%d avg=%v: rank %d elem %d = %g want %g",
						trial, ranks, avg, c.Rank(), j, buf[j], want[j])
					return
				}
			}
		})
	}
}

// TestAllreduceAlgoLeadersPropertyRandom pins the algorithm-selectable
// allreduce leader to the mathematical definition: whatever cost model is
// selected (ring, recursive halving, flat tree, hierarchical two-level,
// binary tree) and whatever CCL channel the collective is pinned to, the
// data movement must equal the naive single-threaded sum over random rank
// counts 2–8 — and the charged busy time must match the algorithm's cost
// model exactly.
func TestAllreduceAlgoLeadersPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 30; trial++ {
		ranks := 2 + rng.Intn(7) // 2..8
		n := 1 + rng.Intn(200)
		avg := rng.Intn(2) == 0
		algo := AllreduceAlgos[rng.Intn(len(AllreduceAlgos))]
		ch := rng.Intn(5) - 1 // -1 (label hash) .. 3 (pinned)
		backend := cluster.CCLBackend
		if rng.Intn(2) == 0 {
			backend = cluster.MPIBackend
		}
		in := randInputs(rng, ranks, n)

		want := make([]float64, n)
		for _, v := range in {
			for j, x := range v {
				want[j] += float64(x)
			}
		}
		if avg {
			for j := range want {
				want[j] /= float64(ranks)
			}
		}
		stats := runComm(t, ranks, backend, func(c *Comm) {
			buf := append([]float32(nil), in[c.Rank()]...)
			h := c.AllreduceAlgoCost("ar", ch, buf, avg, float64(4*n), algo)
			c.R.Wait(h)
			for j := range buf {
				if math.Abs(float64(buf[j])-want[j]) > 1e-4 {
					t.Errorf("trial %d ranks=%d algo=%v ch=%d: rank %d elem %d = %g want %g",
						trial, ranks, algo, ch, c.Rank(), j, buf[j], want[j])
					return
				}
			}
			wantT := c.AllreduceTimeAlgo(algo, float64(4*n))
			if wantT <= 0 {
				t.Errorf("trial %d: algo %v charged non-positive time %g", trial, algo, wantT)
			}
		})
		for rk, s := range stats {
			if s.CommBusy["ar"] <= 0 {
				t.Fatalf("trial %d algo=%v: rank %d recorded no allreduce busy time", trial, algo, rk)
			}
		}
	}
}

func TestAlltoallPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(7)
		bl := 1 + rng.Intn(16)
		in := randInputs(rng, ranks, ranks*bl)
		runComm(t, ranks, cluster.MPIBackend, func(c *Comm) {
			recv, h := c.Alltoall("a2a", in[c.Rank()], bl)
			c.R.Wait(h)
			for src := 0; src < ranks; src++ {
				for j := 0; j < bl; j++ {
					// Reference: recv block src = src's send block dst.
					if recv[src*bl+j] != in[src][c.Rank()*bl+j] {
						t.Errorf("trial %d ranks=%d bl=%d: rank %d block %d mismatch",
							trial, ranks, bl, c.Rank(), src)
						return
					}
				}
			}
		})
	}
}

func TestScatterGatherPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(7)
		bl := 1 + rng.Intn(16)
		root := rng.Intn(ranks)
		in := randInputs(rng, ranks, bl)
		rootBuf := randInputs(rng, 1, ranks*bl)[0]
		runComm(t, ranks, cluster.CCLBackend, func(c *Comm) {
			// Scatter: rank j must receive root's block j.
			var send []float32
			if c.Rank() == root {
				send = rootBuf
			}
			blk, h := c.Scatter("sc", root, send, bl)
			c.R.Wait(h)
			for j := 0; j < bl; j++ {
				if blk[j] != rootBuf[c.Rank()*bl+j] {
					t.Errorf("trial %d: scatter rank %d elem %d mismatch", trial, c.Rank(), j)
					return
				}
			}
			// Gather back: the root must see every rank's block in order.
			var recv []float32
			if c.Rank() == root {
				recv = make([]float32, ranks*bl)
			}
			h = c.GatherCost("ga", root, in[c.Rank()], recv, float64(4*bl))
			c.R.Wait(h)
			if c.Rank() == root {
				for src := 0; src < ranks; src++ {
					for j := 0; j < bl; j++ {
						if recv[src*bl+j] != in[src][j] {
							t.Errorf("trial %d: gather block %d elem %d mismatch", trial, src, j)
							return
						}
					}
				}
			}
		})
	}
}

func TestAllgatherBroadcastPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(7)
		n := 1 + rng.Intn(32)
		root := rng.Intn(ranks)
		in := randInputs(rng, ranks, n)
		runComm(t, ranks, cluster.MPIBackend, func(c *Comm) {
			out, h := c.Allgather("ag", in[c.Rank()])
			c.R.Wait(h)
			for src := 0; src < ranks; src++ {
				for j := 0; j < n; j++ {
					if out[src*n+j] != in[src][j] {
						t.Errorf("trial %d: allgather block %d mismatch", trial, src)
						return
					}
				}
			}
			buf := append([]float32(nil), in[c.Rank()]...)
			h = c.Broadcast("bc", root, buf)
			c.R.Wait(h)
			for j := range buf {
				if buf[j] != in[root][j] {
					t.Errorf("trial %d: broadcast rank %d elem %d mismatch", trial, c.Rank(), j)
					return
				}
			}
		})
	}
}

// TestCollectivesConcurrentStress drives 8 ranks through many iterations of
// interleaved, differently-labeled collectives with real payloads — the
// pattern that exercises rendezvous-slot recycling, the per-Comm reusable
// payload record, the shared pricer's lock, and CCL's concurrent channels —
// on the goroutine engine, where ranks really run concurrently. CI runs this
// package under -race; the data movement is verified so a lost update would
// also fail functionally.
func TestCollectivesConcurrentStress(t *testing.T) {
	const ranks, iters, n = 8, 25, 64
	pools := cluster.NewPools()
	defer pools.Close()
	topo := fabric.NewPrunedFatTree(ranks, 12.5e9)
	for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
		cfg := cluster.Config{
			Ranks: ranks, Topo: topo, Socket: perfmodel.CLX8280,
			Backend: backend, CallOverhead: 1e-9, Pools: pools,
			Parallel: true, // rank goroutines: what -race is here to watch
		}
		cluster.Run(cfg, func(r *cluster.Rank) {
			c := New(r, topo)
			buf := make([]float32, n)
			send := make([]float32, ranks*2)
			recv := make([]float32, ranks*2)
			for it := 0; it < iters; it++ {
				for j := range buf {
					buf[j] = float32(r.ID + it)
				}
				for j := range send {
					send[j] = float32(r.ID*1000 + it)
				}
				hA := c.AllreduceCost("allreduce", buf, false, 4*n)
				hB := c.AlltoallCost("alltoall", send, recv, 2, 8)
				r.Wait(hB)
				r.Wait(hA)
				wantAR := float32(ranks*it) + float32(ranks*(ranks-1))/2
				if buf[0] != wantAR {
					t.Errorf("iter %d rank %d: allreduce got %g want %g", it, r.ID, buf[0], wantAR)
					return
				}
				for src := 0; src < ranks; src++ {
					if recv[src*2] != float32(src*1000+it) {
						t.Errorf("iter %d rank %d: alltoall block %d stale", it, r.ID, src)
						return
					}
				}
				r.Barrier()
			}
		})
	}
}
