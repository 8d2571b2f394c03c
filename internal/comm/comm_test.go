package comm

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// runComm runs body on every rank under cluster.Run twice, fails the test
// unless both runs book exactly the same ledgers, and returns them.
func runComm(t testing.TB, ranks int, backend cluster.Backend, body func(c *Comm, l *ledger)) []ledger {
	t.Helper()
	topo := fabric.NewPrunedFatTree(ranks, 12.5e9)
	return runTwice(t, cluster.Config{
		Ranks: ranks, Topo: topo, Socket: perfmodel.CLX8280,
		Backend: backend, CallOverhead: 1e-9,
	}, body)
}

// ledger is one rank's charges as a test body books them from what the rank
// returns — Compute's seconds and, per label, each Handle's Busy and Wait's
// stall — plus the rank's final clock.
type ledger struct {
	Now, Compute float64
	Busy, Wait   map[string]float64
}

func newLedgers(n int) []ledger {
	ls := make([]ledger, n)
	for i := range ls {
		ls[i].Busy, ls[i].Wait = map[string]float64{}, map[string]float64{}
	}
	return ls
}

// issued books h's busy time under label and returns h.
func (l *ledger) issued(label string, h cluster.Handle) cluster.Handle {
	l.Busy[label] += h.Busy
	return h
}

// wait waits for h on r and books the stall under label.
func (l *ledger) wait(r *cluster.Rank, label string, h cluster.Handle) { l.Wait[label] += r.Wait(h) }

// await books h, issued under label, and waits for it at once.
func (l *ledger) await(r *cluster.Rank, label string, h cluster.Handle) {
	l.wait(r, label, l.issued(label, h))
}

// totalWait sums the stalls in ascending label order.
func (l *ledger) totalWait() float64 {
	var sum float64
	for _, k := range slices.Sorted(maps.Keys(l.Wait)) {
		sum += l.Wait[k]
	}
	return sum
}

// runTwice runs body on every rank of cfg under cluster.Run twice: leaders
// run in issue order, so the rank goroutines' scheduling must not change
// the ledgers.
func runTwice(t testing.TB, cfg cluster.Config, body func(c *Comm, l *ledger)) []ledger {
	t.Helper()
	run := func() []ledger {
		ls := newLedgers(cfg.Ranks)
		cluster.Run(cfg, func(r *cluster.Rank) {
			body(New(r, cfg.Topo), &ls[r.ID])
			ls[r.ID].Now = r.Now()
		})
		return ls
	}
	want := run()
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("a second Run differs:\n got %+v\nwant %+v", got, want)
	}
	return want
}

// TestForAllEqualsRankComms: timing-mode collectives issued for all ranks at
// once through a ForAll communicator charge what every rank's own Comm
// charges under cluster.Run — every kind, every allreduce algorithm, skewed
// ranks, on both backends with contention off and on.
func TestForAllEqualsRankComms(t *testing.T) {
	const bytes = 16 << 20
	for _, ranks := range []int{4, 16} {
		for _, backend := range []cluster.Backend{cluster.MPIBackend, cluster.CCLBackend} {
			for _, contention := range []bool{false, true} {
				topo := fabric.NewPrunedFatTree(ranks, 12.5e9)
				cfg := cluster.Config{Ranks: ranks, Topo: topo, Socket: perfmodel.CLX8280,
					Backend: backend, Contention: contention}
				// program issues one iteration's collectives through c,
				// booking every rank c stands for — rs — in its ledger ls.
				program := func(c *Comm, rs []*cluster.Rank, ls []*ledger) {
					type op struct {
						label string
						h     cluster.Handle
					}
					compute := func(f func(rank int) float64) {
						for i, r := range rs {
							ls[i].Compute += r.Compute(f(r.ID))
						}
					}
					issued := func(label string, h cluster.Handle) op {
						for _, l := range ls {
							l.issued(label, h)
						}
						return op{label, h}
					}
					var ops []op
					for it := range 2 {
						compute(func(rank int) float64 { return 1e-3 * float64(1+(rank*5+it)%3) })
						ops = append(ops[:0], issued("a2a", c.AlltoallSegs("a2a", 0, nil, nil, bytes/float64(ranks))),
							issued("sc", c.ScatterSegs("sc", 1, 1, nil, nil, bytes/float64(ranks))),
							issued("ga", c.GatherSegs("ga", -1, 2, nil, nil, bytes/float64(ranks))))
						for i, algo := range append(AllreduceAlgos, AllreduceAuto) {
							compute(func(int) float64 { return 2e-4 })
							ops = append(ops, issued("ar", c.AllreduceSegs("ar", i, nil, false, bytes/float64(1+i), algo)))
						}
						for _, o := range ops {
							for i, r := range rs {
								ls[i].wait(r, o.label, o.h)
							}
						}
					}
				}
				want := runTwice(t, cfg, func(c *Comm, l *ledger) {
					program(c, []*cluster.Rank{c.R}, []*ledger{l})
				})
				rs, got := cluster.NewRanks(cfg), newLedgers(ranks)
				ls := make([]*ledger, ranks)
				for i := range ls {
					ls[i] = &got[i]
				}
				program(ForAll(rs, topo), rs, ls)
				for i, r := range rs {
					got[i].Now = r.Now()
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d ranks, %v, contention=%v: ForAll differs from the ranks' own Comms:\n got %+v\nwant %+v",
						ranks, backend, contention, got, want)
				}
			}
		}
	}
}

func TestAllreduceSums(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 7} {
		runComm(t, ranks, cluster.MPIBackend, func(c *Comm, l *ledger) {
			buf := []float32{float32(c.Rank()), 1, float32(2 * c.Rank())}
			h := l.issued("ar", c.Allreduce("ar", buf, false))
			l.wait(c.R, "ar", h)
			sumIDs := float32(ranks*(ranks-1)) / 2
			want := []float32{sumIDs, float32(ranks), 2 * sumIDs}
			for i := range want {
				if buf[i] != want[i] {
					t.Errorf("ranks=%d buf[%d]=%g want %g", ranks, i, buf[i], want[i])
				}
			}
		})
	}
}

func TestAllreduceAverage(t *testing.T) {
	runComm(t, 4, cluster.CCLBackend, func(c *Comm, l *ledger) {
		buf := []float32{float32(c.Rank())} // 0,1,2,3 → avg 1.5
		h := l.issued("ar", c.Allreduce("ar", buf, true))
		l.wait(c.R, "ar", h)
		if buf[0] != 1.5 {
			t.Errorf("avg allreduce got %g want 1.5", buf[0])
		}
	})
}

func TestAlltoallTransposesBlocks(t *testing.T) {
	const ranks, bl = 4, 3
	runComm(t, ranks, cluster.MPIBackend, func(c *Comm, l *ledger) {
		send := make([]float32, ranks*bl)
		for j := 0; j < ranks; j++ {
			for i := 0; i < bl; i++ {
				send[j*bl+i] = float32(100*c.Rank() + 10*j + i)
			}
		}
		recv := make([]float32, ranks*bl)
		l.await(c.R, "a2a", c.AlltoallCost("a2a", send, recv, bl, 4*bl))
		for src := 0; src < ranks; src++ {
			for i := 0; i < bl; i++ {
				want := float32(100*src + 10*c.Rank() + i)
				if recv[src*bl+i] != want {
					t.Errorf("rank %d recv[%d,%d]=%g want %g", c.Rank(), src, i, recv[src*bl+i], want)
				}
			}
		}
	})
}

func TestScatterDistributes(t *testing.T) {
	const ranks, bl = 5, 2
	runComm(t, ranks, cluster.MPIBackend, func(c *Comm, l *ledger) {
		var send [][]float32
		const root = 2
		if c.Rank() == root {
			buf := make([]float32, ranks*bl)
			for i := range buf {
				buf[i] = float32(i)
			}
			send = c.blocks(0, buf, ranks)
		}
		blk := make([]float32, bl)
		l.await(c.R, "sc", c.ScatterSegs("sc", -1, root, send, [][]float32{blk}, 4*bl))
		for i := 0; i < bl; i++ {
			if blk[i] != float32(c.Rank()*bl+i) {
				t.Errorf("rank %d blk[%d]=%g", c.Rank(), i, blk[i])
			}
		}
	})
}

func TestAllreduceTimeScaling(t *testing.T) {
	// Ring allreduce volume per rank is 2(R−1)/R·bytes: nearly flat in R.
	// Therefore cost must grow slowly (and never shrink) with rank count —
	// this is why allreduce dominates strong scaling (§VI-D).
	times := map[int]float64{}
	for _, r := range []int{2, 4, 8, 16} {
		topo := fabric.NewPrunedFatTree(r, 12.5e9)
		cfg := cluster.Config{Ranks: r, Topo: topo, Socket: perfmodel.CLX8280, CallOverhead: 1e-9}
		cluster.Run(cfg, func(rk *cluster.Rank) {
			c := New(rk, topo)
			if rk.ID == 0 {
				times[r] = c.AllreduceTimeAlgo(RingRSAG, 9.5e6) // small config's 9.5 MB
			}
		})
	}
	if times[4] < times[2]*0.9 {
		t.Fatalf("allreduce time should not shrink with ranks: %v", times)
	}
	if times[16] < times[8] {
		t.Fatalf("allreduce time should grow slowly: %v", times)
	}
	// And it stays within ~2x across 2→16 ranks (steady growth, not linear).
	if times[16] > 3*times[2] {
		t.Fatalf("allreduce grew too fast: %v", times)
	}
}

func TestAlltoallTimeStrongScalingDecreases(t *testing.T) {
	// Strong scaling: total alltoall volume constant ⇒ per-pair block is
	// vol/R², and with R concurrent adapters the time drops as R grows.
	const totalVol = 208e6 // MLPerf strong-scaling volume (Table II)
	times := map[int]float64{}
	for _, r := range []int{2, 4, 8, 16} {
		topo := fabric.NewPrunedFatTree(r, 12.5e9)
		cfg := cluster.Config{Ranks: r, Topo: topo, Socket: perfmodel.CLX8280, CallOverhead: 1e-9}
		cluster.Run(cfg, func(rk *cluster.Rank) {
			if rk.ID == 0 {
				c := New(rk, topo)
				times[r] = c.time(op{kind: opAlltoall, bytes: totalVol / float64(r*r)})
			}
		})
	}
	if !(times[4] < times[2] && times[8] < times[4] && times[16] < times[8]) {
		t.Fatalf("strong-scaling alltoall must decrease with ranks: %v", times)
	}
	// Per-step improvement follows (R−1)/R²: 1.33× at 2→4, approaching 2×
	// per doubling at larger R.
	if times[2]/times[4] < 1.25 {
		t.Fatalf("2→4 ranks should cut alltoall: %v", times)
	}
	if times[8]/times[16] < 1.6 {
		t.Fatalf("8→16 ranks should approach 2× alltoall reduction: %v", times)
	}
}

func TestTwistedHypercubeAlltoallSaturates(t *testing.T) {
	// Fig. 15: on the 8-socket UPI node, alltoall barely improves from 4 to
	// 8 sockets because 2-hop pairs contend for the same UPI links.
	topo := fabric.NewTwistedHypercube(22e9)
	const totalVol = 1024e6
	times := map[int]float64{}
	for _, r := range []int{4, 8} {
		cfg := cluster.Config{Ranks: r, Topo: topo, Socket: perfmodel.SKX8180, CallOverhead: 1e-9}
		cluster.Run(cfg, func(rk *cluster.Rank) {
			if rk.ID == 0 {
				c := New(rk, topo)
				times[r] = c.time(op{kind: opAlltoall, bytes: totalVol / float64(r*r)})
			}
		})
	}
	improvement := times[4] / times[8]
	if improvement > 1.8 {
		t.Fatalf("twisted hypercube alltoall improved %.2fx from 4→8 sockets; paper expects ≤1.5x", improvement)
	}
}

func TestScatterRootSerialization(t *testing.T) {
	// A scatter is paced by the root's injection link: its cost must be ≈
	// (R−1)× the single-block transfer, which is what makes ScatterList slow.
	const ranks = 8
	topo := fabric.NewPrunedFatTree(ranks, 12.5e9)
	cfg := cluster.Config{Ranks: ranks, Topo: topo, Socket: perfmodel.CLX8280, CallOverhead: 1e-9}
	cluster.Run(cfg, func(rk *cluster.Rank) {
		if rk.ID != 0 {
			return
		}
		c := New(rk, topo)
		block := 1e7
		scatter := c.time(op{kind: opScatter, root: 0, bytes: block})
		var sc fabric.Scratch
		single := sc.PhaseTime(topo, []fabric.Flow{{Src: 0, Dst: 1, Bytes: block}})
		ratio := scatter / single
		if ratio < float64(ranks-1)*0.8 {
			t.Fatalf("scatter root serialization ratio %.1f, want ≈%d", ratio, ranks-1)
		}
	})
}

func TestCollectivesUnderRandomData(t *testing.T) {
	// Allreduce result must equal the local sum of all rank contributions.
	const ranks, n = 6, 128
	rngs := make([]*rand.Rand, ranks)
	inputs := make([][]float32, ranks)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
		inputs[i] = make([]float32, n)
		for j := range inputs[i] {
			inputs[i][j] = rngs[i].Float32()
		}
	}
	want := make([]float32, n)
	for _, in := range inputs {
		for j, v := range in {
			want[j] += v
		}
	}
	runComm(t, ranks, cluster.CCLBackend, func(c *Comm, l *ledger) {
		buf := append([]float32(nil), inputs[c.Rank()]...)
		h := l.issued("ar", c.Allreduce("ar", buf, false))
		l.wait(c.R, "ar", h)
		for j := range buf {
			if math.Abs(float64(buf[j]-want[j])) > 1e-4 {
				t.Errorf("rank %d mismatch at %d", c.Rank(), j)
				break
			}
		}
	})
}

func TestAlltoallInvolution(t *testing.T) {
	// Property: alltoall is its own inverse up to block transposition —
	// sending the received blocks back returns the original buffer.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 2 + rng.Intn(5)
		bl := 1 + rng.Intn(4)
		inputs := make([][]float32, ranks)
		for i := range inputs {
			inputs[i] = make([]float32, ranks*bl)
			for j := range inputs[i] {
				inputs[i][j] = rng.Float32()
			}
		}
		okAll := true
		runComm(t, ranks, cluster.CCLBackend, func(c *Comm, l *ledger) {
			send := append([]float32(nil), inputs[c.Rank()]...)
			recv, back := make([]float32, ranks*bl), make([]float32, ranks*bl)
			l.await(c.R, "a", c.AlltoallCost("a", send, recv, bl, float64(4*bl)))
			l.await(c.R, "b", c.AlltoallCost("b", recv, back, bl, float64(4*bl)))
			for j := range back {
				if back[j] != inputs[c.Rank()][j] {
					okAll = false
					return
				}
			}
		})
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceLinearity(t *testing.T) {
	// Property: allreduce(αx) = α·allreduce(x).
	const ranks = 3
	runComm(t, ranks, cluster.MPIBackend, func(c *Comm, l *ledger) {
		x := []float32{float32(c.Rank() + 1), 2}
		ax := []float32{3 * float32(c.Rank()+1), 6}
		h1 := l.issued("x", c.Allreduce("x", x, false))
		l.wait(c.R, "x", h1)
		h2 := l.issued("ax", c.Allreduce("ax", ax, false))
		l.wait(c.R, "ax", h2)
		for i := range x {
			if math.Abs(float64(ax[i]-3*x[i])) > 1e-4 {
				t.Errorf("linearity violated at %d", i)
			}
		}
	})
}
