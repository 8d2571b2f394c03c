// Package comm implements the communication primitives DLRM's hybrid
// parallelism needs (§II, §IV): allreduce (materialized as reduce-scatter +
// all-gather, the way the paper overlaps the SGD with backward GEMMs),
// alltoall for the model→data parallelism switch at the interaction op, and
// the scatter and gather used by the ScatterList/FusedScatter variants.
//
// Every collective moves real data between the rank goroutines (tests check
// numerical correctness) while its duration is charged from the fabric
// topology: flows are placed on routes and the bottleneck link paces the
// phase. A scatter's root serialization, ring allreduce's 2(R−1)/R volume,
// pairwise alltoall's hop contention on the twisted hypercube — all fall
// out of the flow model rather than hand-tuned constants.
//
// A payload is a segment list: slices that point into the callers' own
// tensors, segment peer·k+s going to (or coming from) peer. The ranks share
// one address space and the rendezvous is synchronous, so a leader copies
// each segment once, straight from the tensor that produced it into the one
// that consumes it, and nothing is staged. A nil list is timing mode: the
// leader moves no data and only models time. The flat forms (Allreduce,
// AllreduceCost, AlltoallCost) view one buffer as such a list.
//
// Allocation discipline: collectives follow the same static-body convention
// as par's *Arg dispatch. Each Comm owns a single xchg record reused as the
// payload/args of every collective it issues (at most one is in flight per
// rank — the rendezvous is synchronous), leaders are package-level
// functions, and the time models run on the one Pricer the job's engine
// holds, which memoises each collective's price. After warmup a steady-state
// collective performs zero heap allocations, which is what keeps the
// distributed training iteration allocation-free in timing mode.
package comm

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// Comm binds a rank to its job's Pricer, providing collectives. The
// embedded Pricer (AllreduceTimeAlgo, BestAllreduceAlgo, Topo) is the
// rank-free cost model and the job's contention epoch; every Comm of one
// engine shares it.
type Comm struct {
	R *cluster.Rank
	*Pricer

	// pay is the reusable payload/args record (see package comment). Its
	// pointer is what travels through the cluster rendezvous, so issuing a
	// collective never boxes a slice or allocates a closure.
	pay xchg
	// flat holds the send and receive segment lists the flat forms build
	// over their buffers, reused across calls.
	flat [2][][]float32

	// all, set by ForAll, are the ranks every collective is issued for at
	// once; pays is their payloads, each this Comm's empty record.
	all  []*cluster.Rank
	pays []any
}

// charge is what a leader returns: o's price against this rank's engine
// (see Pricer.charge). start is the rendezvous start the leader received.
func (c *Comm) charge(start float64, o op) float64 {
	return c.Pricer.charge(c.R.Eng, start, o)
}

// xchg is one rank's contribution to a collective: the segments it sends and
// receives into, and — read from the leader rank's record, identical on
// every rank by SPMD — the collective's parameters.
type xchg struct {
	c          *Comm
	send, recv [][]float32
	avg        bool
	bytes      float64 // modeled volume (total or per-block, per collective)
	root       int
	algo       AllreduceAlgo // allreduce cost-model selector
}

// New returns the communicator for rank r over topo. The first call on an
// engine installs the job's Pricer there; the other ranks' calls share it.
func New(r *cluster.Rank, topo fabric.Topology) *Comm {
	p := r.Eng.Shared(func() any { return NewPricer(topo, r.Eng.Cfg.Ranks) }).(*Pricer)
	if p.Topo != topo {
		panic("comm: the ranks of one job must share one topology")
	}
	c := &Comm{R: r, Pricer: p}
	c.pay.c = c
	return c
}

// ForAll returns the communicator of a caller that advances all of a job's
// ranks itself (cluster.NewRanks): each collective is issued for every rank
// at once through cluster.CollectiveAll, with the leaders and the Pricer
// the ranks' own Comms would rendezvous on, so it charges the same times.
// It is timing mode only — every segment list must be nil — and its
// methods return the handle every rank received.
func ForAll(ranks []*cluster.Rank, topo fabric.Topology) *Comm {
	c := New(ranks[0], topo)
	c.all = ranks
	c.pays = make([]any, len(ranks))
	for i := range c.pays {
		c.pays[i] = &c.pay
	}
	return c
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.R.ID }

// issue hands p to the cluster rendezvous in the reusable record, on CCL
// channel ch (see cluster.Rank.CollectiveOn; ch < 0 keeps label-hash
// placement).
func (c *Comm) issue(label string, ch int, lead cluster.LeaderFunc, p xchg) cluster.Handle {
	c.pay = p
	if c.all != nil {
		if p.send != nil || p.recv != nil {
			panic("comm: a ForAll communicator moves no data")
		}
		return cluster.CollectiveAll(c.all, label, ch, c.pays, &c.pay, lead)
	}
	return c.R.CollectiveOn(label, ch, &c.pay, &c.pay, lead)
}

// blocks views buf as n equal segments in the reusable list flat[i]; a nil
// buf is a nil list (timing mode).
func (c *Comm) blocks(i int, buf []float32, n int) [][]float32 {
	if buf == nil {
		return nil
	}
	segs, bl := c.flat[i][:0], len(buf)/n
	for j := range n {
		segs = append(segs, buf[j*bl:(j+1)*bl])
	}
	c.flat[i] = segs
	return segs
}

// Allreduce sums buf elementwise across all ranks (in place) and returns a
// handle; the buffer contents are valid after the call (the handle defers
// only virtual time). If avg is true the result is divided by the rank
// count (DDP gradient averaging).
func (c *Comm) Allreduce(label string, buf []float32, avg bool) cluster.Handle {
	return c.AllreduceCost(label, buf, avg, float64(4*len(buf)))
}

// AllreduceCost is Allreduce with an explicit modeled volume in bytes; a nil
// buf is timing mode.
func (c *Comm) AllreduceCost(label string, buf []float32, avg bool, bytes float64) cluster.Handle {
	return c.AllreduceSegs(label, -1, c.blocks(0, buf, 1), avg, bytes, RingRSAG)
}

// AlltoallCost is the alltoall over flat buffers with an explicit modeled
// per-block volume: send and recv each hold Size() blocks of blockLen
// float32s; after the call recv's block j came from rank j. Timing mode
// passes nil buffers and blockLen 0.
func (c *Comm) AlltoallCost(label string, send, recv []float32, blockLen int, blockBytes float64) cluster.Handle {
	var s, r [][]float32
	if blockLen > 0 {
		if len(send) != c.size*blockLen || len(recv) != c.size*blockLen {
			panic(fmt.Sprintf("comm: alltoall send/recv len %d/%d want %d", len(send), len(recv), c.size*blockLen))
		}
		s, r = c.blocks(0, send, c.size), c.blocks(1, recv, c.size)
	}
	return c.AlltoallSegs(label, -1, s, r, blockBytes)
}
