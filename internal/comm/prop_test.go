// Property tests for the collectives: every data-moving primitive is
// checked against a naive single-threaded reference over random rank
// counts (2–8), segment counts and segment lengths, empty segments
// included. These pin the leader protocol (segment lists into the callers'
// tensors, reduction into rank 0's segments in rank order, recycled
// rendezvous slots) to the mathematical definition of each collective, and
// TestCollectivesConcurrentStress is sized to run under -race in CI.
package comm

import (
	"math"
	"math/rand"
	"slices"
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
		runComm(t, ranks, cluster.CCLBackend, func(c *Comm, l *ledger) {
			buf := append([]float32(nil), in[c.Rank()]...)
			h := l.issued("ar", c.Allreduce("ar", buf, avg))
			l.wait(c.R, "ar", h)
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

// randLens draws k segment lengths in [0, max], about one in four empty.
func randLens(rng *rand.Rand, k, max int) []int {
	lens := make([]int, k)
	for s := range lens {
		if rng.Intn(4) > 0 {
			lens[s] = rng.Intn(max + 1)
		}
	}
	return lens
}

// cut views buf as consecutive segments of the given lengths.
func cut(buf []float32, lens []int) [][]float32 {
	segs := make([][]float32, len(lens))
	for s, n := range lens {
		segs[s], buf = buf[:n:n], buf[n:]
	}
	return segs
}

// total is the sum of lens.
func total(lens []int) (n int) {
	for _, l := range lens {
		n += l
	}
	return n
}

// TestAllreduceAlgoLeadersPropertyRandom pins the segment-list allreduce to
// the mathematical definition: whatever cost model is selected (ring,
// recursive halving, flat tree, hierarchical two-level, binary tree),
// whatever CCL channel the collective is pinned to and however the payload
// is cut into segments (empty ones included), every rank ends with the
// float32 sum of all ranks' values accumulated in rank order — bit for bit
// — and a non-empty payload's charged busy time is positive.
func TestAllreduceAlgoLeadersPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 30; trial++ {
		ranks := 2 + rng.Intn(7) // 2..8
		lens := randLens(rng, 1+rng.Intn(6), 40)
		n := total(lens)
		avg := rng.Intn(2) == 0
		algo := AllreduceAlgos[rng.Intn(len(AllreduceAlgos))]
		ch := rng.Intn(5) - 1 // -1 (label hash) .. 3 (pinned)
		backend := cluster.CCLBackend
		if rng.Intn(2) == 0 {
			backend = cluster.MPIBackend
		}
		in := randInputs(rng, ranks, n)

		want := append([]float32(nil), in[0]...)
		for _, v := range in[1:] {
			for j, x := range v {
				want[j] += x
			}
		}
		if avg {
			for j := range want {
				want[j] *= 1 / float32(ranks)
			}
		}
		stats := runComm(t, ranks, backend, func(c *Comm, l *ledger) {
			buf := append([]float32(nil), in[c.Rank()]...)
			l.await(c.R, "ar", c.AllreduceSegs("ar", ch, cut(buf, lens), avg, float64(4*n), algo))
			if !slices.Equal(buf, want) {
				t.Errorf("trial %d ranks=%d segments %v algo=%v ch=%d: rank %d holds %v, want %v",
					trial, ranks, lens, algo, ch, c.Rank(), buf, want)
			}
		})
		for rk, s := range stats {
			if n > 0 && s.Busy["ar"] <= 0 {
				t.Fatalf("trial %d algo=%v: rank %d recorded no allreduce busy time", trial, algo, rk)
			}
		}
	}
}

// TestAlltoallPropertyRandom: k segments per peer shaped like the embedding
// exchange — rank r owns own[r] ≤ k tables, table slot s carries lens[r][s]
// floats to every peer, and the slots past own[r] are empty — land where the
// naive reference puts them: recv segment src·k+s of rank dst is send
// segment dst·k+s of rank src.
func TestAlltoallPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(7)
		k := 1 + rng.Intn(3)
		lens := make([][]int, ranks) // rank r owns len(lens[r]) tables
		for r := range lens {
			lens[r] = randLens(rng, 1+rng.Intn(k), 16)
		}
		slot := func(r, s int) int {
			if s < len(lens[r]) {
				return lens[r][s]
			}
			return 0
		}
		var sendLens, recvLens [][]int // per rank, segment peer·k+s
		for r := range ranks {
			var sl, rl []int
			for peer := range ranks {
				for s := range k {
					sl, rl = append(sl, slot(r, s)), append(rl, slot(peer, s))
				}
			}
			sendLens, recvLens = append(sendLens, sl), append(recvLens, rl)
		}
		in := make([][][]float32, ranks)
		for r := range in {
			in[r] = cut(randInputs(rng, 1, total(sendLens[r]))[0], sendLens[r])
		}
		runComm(t, ranks, cluster.MPIBackend, func(c *Comm, l *ledger) {
			rl := recvLens[c.Rank()]
			recv := cut(make([]float32, total(rl)), rl)
			l.await(c.R, "a2a", c.AlltoallSegs("a2a", -1, in[c.Rank()], recv, 64))
			for src := range ranks {
				for s := range k {
					if got, want := recv[src*k+s], in[src][c.Rank()*k+s]; !slices.Equal(got, want) {
						t.Errorf("trial %d ranks=%d k=%d: rank %d segment %d of rank %d is %v, want %v",
							trial, ranks, k, c.Rank(), s, src, got, want)
						return
					}
				}
			}
		})
	}
}

// TestScatterGatherPropertyRandom: k segments per rank of random lengths,
// empty ones included. Scatter: rank j's recv segment s is the root's send
// segment j·k+s. Gather back: the root's recv segment j·k+s is rank j's
// send segment s.
func TestScatterGatherPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 20; trial++ {
		ranks := 2 + rng.Intn(7)
		k := 1 + rng.Intn(3)
		root := rng.Intn(ranks)
		var all []int // segment peer·k+s's length
		for range ranks {
			all = append(all, randLens(rng, k, 16)...)
		}
		n := total(all)
		rootBuf := cut(randInputs(rng, 1, n)[0], all)
		in := make([][][]float32, ranks)
		for j := range in {
			in[j] = cut(randInputs(rng, 1, n)[0], all[j*k:(j+1)*k])
		}
		runComm(t, ranks, cluster.CCLBackend, func(c *Comm, l *ledger) {
			var send [][]float32
			if c.Rank() == root {
				send = rootBuf
			}
			mine := all[c.Rank()*k : (c.Rank()+1)*k]
			recv := cut(make([]float32, total(mine)), mine)
			l.await(c.R, "sc", c.ScatterSegs("sc", -1, root, send, recv, 64))
			for s := range k {
				if !slices.Equal(recv[s], rootBuf[c.Rank()*k+s]) {
					t.Errorf("trial %d: scatter rank %d segment %d is %v, want %v", trial, c.Rank(), s, recv[s], rootBuf[c.Rank()*k+s])
					return
				}
			}
			var back [][]float32
			if c.Rank() == root {
				back = cut(make([]float32, n), all)
			}
			l.await(c.R, "ga", c.GatherSegs("ga", -1, root, in[c.Rank()], back, 64))
			if c.Rank() == root {
				for j := range ranks {
					for s := range k {
						if !slices.Equal(back[j*k+s], in[j][s]) {
							t.Errorf("trial %d: gather segment %d of rank %d is %v, want %v", trial, s, j, back[j*k+s], in[j][s])
							return
						}
					}
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
