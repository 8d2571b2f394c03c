// Package comm implements the communication primitives DLRM's hybrid
// parallelism needs (§II, §IV): allreduce (materialized as reduce-scatter +
// all-gather, the way the paper overlaps the SGD with backward GEMMs),
// alltoall for the model→data parallelism switch at the interaction op, and
// the scatter used by the ScatterList/FusedScatter variants.
//
// Every collective moves real data between the rank goroutines (tests check
// numerical correctness) while its duration is charged from the fabric
// topology: flows are placed on routes and the bottleneck link paces the
// phase. A scatter's root serialization, ring allreduce's 2(R−1)/R volume,
// pairwise alltoall's hop contention on the twisted hypercube — all fall
// out of the flow model rather than hand-tuned constants.
//
// Allocation discipline: collectives follow the same static-body convention
// as par's *Arg dispatch. Each Comm owns a single xchg record reused as the
// payload/args of every collective it issues (at most one is in flight per
// rank — the rendezvous is synchronous), leaders are package-level
// functions, data lands in caller-provided receive buffers, and the time
// models run on the one Pricer the job's engine holds, which memoises each
// collective's price. After warmup a steady-state collective performs zero
// heap allocations, which is what keeps the distributed training iteration
// allocation-free in timing mode.
package comm

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// Comm binds a rank to its job's Pricer, providing collectives. The
// embedded Pricer's time methods (AllreduceTime, AlltoallTime, …) and Topo
// are the rank-free cost model; every Comm of one engine shares it.
type Comm struct {
	R *cluster.Rank
	*Pricer

	// pay is the reusable payload/args record (see package comment). Its
	// pointer is what travels through the cluster rendezvous, so issuing a
	// collective never boxes a slice or allocates a closure.
	pay xchg
}

// charge is what a leader returns: o's price against this rank's engine
// (see Pricer.charge). start is the rendezvous start the leader received.
func (c *Comm) charge(start float64, o op) float64 {
	return c.Pricer.charge(c.R.Eng, start, o)
}

// xchg is one rank's contribution to a collective: the data it sends, the
// caller-owned buffer it receives into, and — read from the leader rank's
// record, identical on every rank by SPMD — the collective's parameters.
// Timing-only runs leave the data fields nil/zero; leaders then skip data
// movement and only model time.
type xchg struct {
	c        *Comm
	send     []float32
	recv     []float32
	avg      bool
	bytes    float64 // modeled volume (total or per-block, per collective)
	blockLen int
	root     int
	algo     AllreduceAlgo // allreduce cost-model selector (AllreduceAlgoCost)
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

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.R.ID }

// issue resets the parameter fields of the reusable record and hands it to
// the cluster rendezvous.
func (c *Comm) issue(label string, lead cluster.LeaderFunc, p xchg) cluster.Handle {
	return c.issueOn(label, -1, lead, p)
}

// issueOn is issue with an explicit CCL channel hint (see
// cluster.Rank.CollectiveOn); ch < 0 keeps label-hash placement.
func (c *Comm) issueOn(label string, ch int, lead cluster.LeaderFunc, p xchg) cluster.Handle {
	c.pay = p
	return c.R.CollectiveOn(label, ch, &c.pay, &c.pay, lead)
}

// Allreduce sums buf elementwise across all ranks (in place) and returns a
// handle; the buffer contents are valid after the call (the handle defers
// only virtual time). If avg is true the result is divided by the rank
// count (DDP gradient averaging).
func (c *Comm) Allreduce(label string, buf []float32, avg bool) cluster.Handle {
	return c.AllreduceCost(label, buf, avg, float64(4*len(buf)))
}

// Alltoall performs the personalized all-to-all: send holds Size()
// contiguous blocks of blockLen float32s (block j destined to rank j); the
// returned slice holds Size() blocks where block j came from rank j. This
// convenience wrapper allocates the receive buffer; steady-state callers
// use AlltoallCost with a reused one.
func (c *Comm) Alltoall(label string, send []float32, blockLen int) ([]float32, cluster.Handle) {
	recv := make([]float32, c.size*blockLen)
	h := c.AlltoallCost(label, send, recv, blockLen, float64(4*blockLen))
	return recv, h
}

// Scatter distributes root's send buffer (Size() blocks of blockLen) so
// that rank j receives block j. Non-root ranks pass send=nil. This
// convenience wrapper allocates the receive buffer; steady-state callers
// use ScatterCost with a reused one.
func (c *Comm) Scatter(label string, root int, send []float32, blockLen int) ([]float32, cluster.Handle) {
	recv := make([]float32, blockLen)
	h := c.ScatterCost(label, root, send, recv, blockLen, float64(4*blockLen))
	return recv, h
}

func allgatherLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	if a.blockLen > 0 {
		bl := a.blockLen
		for j := range payloads {
			if len(payloads[j].(*xchg).send) != bl {
				panic(fmt.Sprintf("comm: allgather irregular block sizes: rank %d sent %d want %d",
					j, len(payloads[j].(*xchg).send), bl))
			}
		}
		for dst := range payloads {
			pd := payloads[dst].(*xchg)
			for j := range payloads {
				copy(pd.recv[j*bl:(j+1)*bl], payloads[j].(*xchg).send)
			}
		}
	}
	return a.c.charge(start, op{kind: opReduceScatter, bytes: float64(4 * len(payloads) * a.blockLen)})
}

// AllgatherInto concatenates every rank's send block into recv (length
// Size()·len(send)); rank j's data lands at block j. Valid on return.
func (c *Comm) AllgatherInto(label string, send, recv []float32) cluster.Handle {
	if len(recv) != c.size*len(send) {
		panic(fmt.Sprintf("comm: allgather recv len %d want %d", len(recv), c.size*len(send)))
	}
	return c.issue(label, allgatherLead, xchg{c: c, send: send, recv: recv, blockLen: len(send)})
}

// Allgather is the allocating convenience form of AllgatherInto.
func (c *Comm) Allgather(label string, send []float32) ([]float32, cluster.Handle) {
	recv := make([]float32, c.size*len(send))
	h := c.AllgatherInto(label, send, recv)
	return recv, h
}

func broadcastLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	root := payloads[a.root].(*xchg)
	for i := range payloads {
		if i != a.root {
			copy(payloads[i].(*xchg).send, root.send)
		}
	}
	return a.c.charge(start, op{kind: opBroadcast, bytes: float64(4 * len(root.send))})
}

// Broadcast copies root's buffer to every rank (in place on buf), valid on
// return. Used to replicate initial MLP weights so data-parallel ranks
// start identical.
func (c *Comm) Broadcast(label string, root int, buf []float32) cluster.Handle {
	return c.issue(label, broadcastLead, xchg{c: c, send: buf, root: root})
}
