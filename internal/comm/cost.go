package comm

import (
	"fmt"

	"repro/internal/cluster"
)

// The *Cost variants of the collectives decouple the modeled volume from the
// actual payload size. The distributed trainer runs in two regimes: the
// functional regime moves real (scaled-down) tensors to validate numerics,
// while the timing regime replays the paper-scale experiment with nil
// payloads and explicit byte counts from Table II. Both regimes issue the
// identical collective sequence, so the timing structure is exercised by the
// functional tests — and in the timing regime the leaders skip data movement
// entirely, keeping the steady-state iteration free of heap allocations.

// allreduceMove performs the allreduce data movement: accumulate every
// rank's buffer into rank 0's (so the summation order matches the
// sequential reference), optionally average, and fan the result back out.
// Timing-only collectives (nil send) skip it.
func allreduceMove(a *xchg, payloads []any) {
	if a.send == nil {
		return
	}
	sum := payloads[0].(*xchg).send
	for i := 1; i < len(payloads); i++ {
		v := payloads[i].(*xchg).send
		if len(v) != len(sum) {
			panic(fmt.Sprintf("comm: allreduce size mismatch %d vs %d", len(v), len(sum)))
		}
		for j, x := range v {
			sum[j] += x
		}
	}
	if a.avg {
		inv := 1 / float32(len(payloads))
		for j := range sum {
			sum[j] *= inv
		}
	}
	for i := 1; i < len(payloads); i++ {
		copy(payloads[i].(*xchg).send, sum)
	}
}

func allreduceLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	allreduceMove(a, payloads)
	return a.c.charge(start, op{kind: opAllreduce, algo: RingRSAG, bytes: a.bytes})
}

// allreduceAlgoLead moves data exactly like allreduceLead but charges the
// algorithm selected in the leader's xchg record — the static-leader hook
// that makes every modeled allreduce algorithm a drop-in for the trainer.
func allreduceAlgoLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	allreduceMove(a, payloads)
	return a.c.charge(start, op{kind: opAllreduce, algo: a.algo, bytes: a.bytes})
}

// AllreduceCost is Allreduce with an explicit modeled volume in bytes. The
// reduction accumulates into rank 0's buffer and fans the result back out,
// so the summation order matches the sequential reference.
func (c *Comm) AllreduceCost(label string, buf []float32, avg bool, bytes float64) cluster.Handle {
	return c.issue(label, allreduceLead, xchg{c: c, send: buf, avg: avg, bytes: bytes})
}

// AllreduceAlgoCost is AllreduceCost with an explicit algorithm for the cost
// model and a CCL channel hint (ch < 0 = label-hash placement): identical
// data movement for every algorithm, only the modeled duration differs.
// RingRSAG charges exactly what AllreduceCost does.
func (c *Comm) AllreduceAlgoCost(label string, ch int, buf []float32, avg bool, bytes float64, algo AllreduceAlgo) cluster.Handle {
	return c.issueOn(label, ch, allreduceAlgoLead, xchg{c: c, send: buf, avg: avg, bytes: bytes, algo: algo})
}

func alltoallLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	if a.blockLen > 0 {
		bl := a.blockLen
		for dst := range payloads {
			pd := payloads[dst].(*xchg)
			for src := range payloads {
				ps := payloads[src].(*xchg)
				copy(pd.recv[src*bl:(src+1)*bl], ps.send[dst*bl:(dst+1)*bl])
			}
		}
	}
	return a.c.charge(start, op{kind: opAlltoall, bytes: a.bytes})
}

// AlltoallCost is the alltoall with an explicit modeled per-block volume and
// a caller-owned receive buffer: send and recv each hold Size() blocks of
// blockLen float32s; after the call recv's block j came from rank j. Timing
// mode passes nil buffers and blockLen 0.
func (c *Comm) AlltoallCost(label string, send, recv []float32, blockLen int, blockBytes float64) cluster.Handle {
	return c.AlltoallCostOn(label, -1, send, recv, blockLen, blockBytes)
}

// AlltoallCostOn is AlltoallCost with a CCL channel hint (ch < 0 keeps
// label-hash placement), so the forward and backward redistributions can
// occupy distinct channels and overlap in flight.
func (c *Comm) AlltoallCostOn(label string, ch int, send, recv []float32, blockLen int, blockBytes float64) cluster.Handle {
	if blockLen > 0 && (len(send) != c.size*blockLen || len(recv) != c.size*blockLen) {
		panic(fmt.Sprintf("comm: alltoall send/recv len %d/%d want %d", len(send), len(recv), c.size*blockLen))
	}
	return c.issueOn(label, ch, alltoallLead, xchg{c: c, send: send, recv: recv, blockLen: blockLen, bytes: blockBytes})
}

func scatterLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	root := payloads[a.root].(*xchg)
	if root.send != nil {
		bl := a.blockLen
		for j := range payloads {
			copy(payloads[j].(*xchg).recv, root.send[j*bl:(j+1)*bl])
		}
	}
	return a.c.charge(start, op{kind: opScatter, root: a.root, bytes: a.bytes})
}

// ScatterCost is the scatter with an explicit modeled per-block volume and a
// caller-owned receive buffer (length blockLen). Non-root ranks pass
// send=nil; timing mode passes nil buffers and blockLen 0.
func (c *Comm) ScatterCost(label string, root int, send, recv []float32, blockLen int, blockBytes float64) cluster.Handle {
	return c.ScatterCostOn(label, -1, root, send, recv, blockLen, blockBytes)
}

// ScatterCostOn is ScatterCost with a CCL channel hint (ch < 0 = label hash).
func (c *Comm) ScatterCostOn(label string, ch, root int, send, recv []float32, blockLen int, blockBytes float64) cluster.Handle {
	if c.Rank() == root && send != nil && len(send) != c.size*blockLen {
		panic(fmt.Sprintf("comm: scatter send len %d want %d", len(send), c.size*blockLen))
	}
	return c.issueOn(label, ch, scatterLead, xchg{c: c, send: send, recv: recv, blockLen: blockLen, root: root, bytes: blockBytes})
}

func gatherLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	root := payloads[a.root].(*xchg)
	if root.recv != nil {
		bl := a.blockLen
		for j := range payloads {
			copy(root.recv[j*bl:(j+1)*bl], payloads[j].(*xchg).send)
		}
	}
	return a.c.charge(start, op{kind: opGather, root: a.root, bytes: a.bytes})
}

// GatherCost collects every rank's send block at root, concatenated in rank
// order into the root's caller-owned recv (length Size()·len(send));
// non-root ranks pass recv=nil. Timing mode passes nil buffers everywhere.
func (c *Comm) GatherCost(label string, root int, send, recv []float32, blockBytes float64) cluster.Handle {
	return c.GatherCostOn(label, -1, root, send, recv, blockBytes)
}

// GatherCostOn is GatherCost with a CCL channel hint (ch < 0 = label hash).
func (c *Comm) GatherCostOn(label string, ch, root int, send, recv []float32, blockBytes float64) cluster.Handle {
	if c.Rank() == root && recv != nil && len(recv) != c.size*len(send) {
		panic(fmt.Sprintf("comm: gather recv len %d want %d", len(recv), c.size*len(send)))
	}
	return c.issueOn(label, ch, gatherLead, xchg{c: c, send: send, recv: recv, blockLen: len(send), root: root, bytes: blockBytes})
}
