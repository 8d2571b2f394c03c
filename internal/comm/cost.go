package comm

import (
	"fmt"

	"repro/internal/cluster"
)

// The segment-list collectives. Each takes the modeled volume separately
// from the payload: the functional regime moves real (scaled-down) tensors
// to validate numerics, while the timing regime replays the paper-scale
// experiment with nil lists and explicit byte counts from Table II. Both
// regimes issue the identical collective sequence, so the timing structure
// is exercised by the functional tests — and in the timing regime the
// leaders skip data movement entirely, keeping the steady-state iteration
// free of heap allocations. ch is a CCL channel hint (ch < 0 keeps
// label-hash placement), so concurrently in-flight collectives can occupy
// distinct channels.

// move copies a segment into its destination, which must be as long.
func move(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: segment of %d floats received into %d", len(src), len(dst)))
	}
	copy(dst, src)
}

func allreduceLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	if a.send != nil {
		sum := payloads[0].(*xchg).send
		for i := 1; i < len(payloads); i++ {
			v := payloads[i].(*xchg).send
			if len(v) != len(sum) {
				panic(fmt.Sprintf("comm: allreduce of %d segments vs %d", len(v), len(sum)))
			}
			for s, seg := range v {
				if len(seg) != len(sum[s]) {
					panic(fmt.Sprintf("comm: allreduce segment %d size mismatch %d vs %d", s, len(seg), len(sum[s])))
				}
				acc := sum[s][:len(seg)]
				for j, x := range seg {
					acc[j] += x
				}
			}
		}
		if a.avg {
			inv := 1 / float32(len(payloads))
			for _, acc := range sum {
				for j := range acc {
					acc[j] *= inv
				}
			}
		}
		for i := 1; i < len(payloads); i++ {
			for s, seg := range payloads[i].(*xchg).send {
				copy(seg, sum[s])
			}
		}
	}
	return a.c.charge(start, op{kind: opAllreduce, algo: a.algo, bytes: a.bytes})
}

// AllreduceSegs sums segs elementwise across all ranks, in place: segment s
// is accumulated into rank 0's segment s in rank order, divided by the rank
// count if avg, and copied out to every other rank's, so the summation order
// matches the sequential reference. algo selects the cost model only — the
// data movement is the same for every algorithm, and RingRSAG charges what
// AllreduceCost does. A nil list is timing mode.
func (c *Comm) AllreduceSegs(label string, ch int, segs [][]float32, avg bool, bytes float64, algo AllreduceAlgo) cluster.Handle {
	return c.issue(label, ch, allreduceLead, xchg{c: c, send: segs, avg: avg, bytes: bytes, algo: algo})
}

func alltoallLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	if a.send != nil {
		for dst := range payloads {
			pd := payloads[dst].(*xchg)
			k := len(pd.recv) / len(payloads)
			for src := range payloads {
				ps := payloads[src].(*xchg)
				if len(ps.send) != len(pd.recv) {
					panic(fmt.Sprintf("comm: alltoall rank %d sends %d segments, rank %d receives %d", src, len(ps.send), dst, len(pd.recv)))
				}
				for s := range k {
					move(pd.recv[src*k+s], ps.send[dst*k+s])
				}
			}
		}
	}
	return a.c.charge(start, op{kind: opAlltoall, bytes: a.bytes})
}

// AlltoallSegs is the personalized all-to-all over segment lists of Size()·k
// segments each: send segment peer·k+s lands in peer's recv segment
// rank·k+s. Segments may be empty (a rank owning fewer tables than the
// widest); paired segments must be equally long. blockBytes is the modeled
// volume per peer.
func (c *Comm) AlltoallSegs(label string, ch int, send, recv [][]float32, blockBytes float64) cluster.Handle {
	if len(send) != len(recv) || len(send)%c.size != 0 {
		panic(fmt.Sprintf("comm: alltoall of %d send and %d recv segments over %d ranks", len(send), len(recv), c.size))
	}
	return c.issue(label, ch, alltoallLead, xchg{c: c, send: send, recv: recv, bytes: blockBytes})
}

func scatterLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	if root := payloads[a.root].(*xchg); root.send != nil {
		for j := range payloads {
			recv := payloads[j].(*xchg).recv
			k := len(recv)
			if len(root.send) != len(payloads)*k {
				panic(fmt.Sprintf("comm: scatter of %d segments, rank %d receives %d", len(root.send), j, k))
			}
			for s, seg := range recv {
				move(seg, root.send[j*k+s])
			}
		}
	}
	return a.c.charge(start, op{kind: opScatter, root: a.root, bytes: a.bytes})
}

// ScatterSegs distributes root's send list: its segment peer·k+s lands in
// peer's recv segment s, k = len(recv). Non-root ranks pass send nil;
// timing mode passes nil lists everywhere. blockBytes is the modeled volume
// per peer.
func (c *Comm) ScatterSegs(label string, ch, root int, send, recv [][]float32, blockBytes float64) cluster.Handle {
	if c.Rank() == root && send != nil && len(send) != c.size*len(recv) {
		panic(fmt.Sprintf("comm: scatter of %d segments, %d per rank over %d ranks", len(send), len(recv), c.size))
	}
	return c.issue(label, ch, scatterLead, xchg{c: c, send: send, recv: recv, root: root, bytes: blockBytes})
}

func gatherLead(arg any, payloads []any, start float64) float64 {
	a := arg.(*xchg)
	if root := payloads[a.root].(*xchg); root.recv != nil {
		for j := range payloads {
			send := payloads[j].(*xchg).send
			k := len(send)
			if len(root.recv) != len(payloads)*k {
				panic(fmt.Sprintf("comm: gather into %d segments, rank %d sends %d", len(root.recv), j, k))
			}
			for s, seg := range send {
				move(root.recv[j*k+s], seg)
			}
		}
	}
	return a.c.charge(start, op{kind: opGather, root: a.root, bytes: a.bytes})
}

// GatherSegs collects every rank's send list at root: segment s of rank
// peer lands in root's recv segment peer·k+s, k = len(send). Non-root ranks
// pass recv nil; timing mode passes nil lists everywhere. blockBytes is the
// modeled volume per peer.
func (c *Comm) GatherSegs(label string, ch, root int, send, recv [][]float32, blockBytes float64) cluster.Handle {
	if c.Rank() == root && recv != nil && len(recv) != c.size*len(send) {
		panic(fmt.Sprintf("comm: gather into %d segments, %d per rank over %d ranks", len(recv), len(send), c.size))
	}
	return c.issue(label, ch, gatherLead, xchg{c: c, send: send, recv: recv, root: root, bytes: blockBytes})
}
