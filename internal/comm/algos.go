package comm

import (
	"math"
	"math/bits"

	"repro/internal/fabric"
)

// AllreduceAlgo selects the allreduce algorithm for the cost model. The
// paper (§II) calls for "the best possible allreduce algorithm"; which one
// that is depends on message size and scale, so the ablation harness sweeps
// these.
type AllreduceAlgo int

const (
	// RingRSAG is the bandwidth-optimal ring reduce-scatter + all-gather
	// the trainer uses by default: 2(R−1) neighbour phases of bytes/R.
	RingRSAG AllreduceAlgo = iota
	// RecursiveHalving is the latency-optimal recursive halving/doubling:
	// 2·log2(R) phases with geometrically shrinking volumes. Wins for small
	// messages where the ring's 2(R−1) latencies dominate.
	RecursiveHalving
	// FlatTree is the naive gather-to-root + broadcast: the root's link
	// carries (R−1)·bytes in each direction. The baseline a framework uses
	// when nobody tuned it.
	FlatTree
	// Hierarchical is the two-level allreduce matching the cluster's
	// dual-socket nodes (§V-B): an intra-node ring reduce-scatter leaves each
	// socket owning 1/G of the reduced node sum, G concurrent inter-node
	// rings allreduce the shards across nodes, and an intra-node all-gather
	// reassembles. Same total volume as the flat ring but 2(G−1)+2(R/G−1)
	// phases instead of 2(R−1) — it trades nothing to halve the latency term
	// at G=2, which is what makes it strictly faster on the OPA fat-tree.
	Hierarchical
	// BinaryTree is the NCCL-style pipelined double binary tree: two
	// complementary trees each reduce-and-broadcast half the message in
	// chunks, so every rank sends/receives at most two chunk streams per
	// step. Depth-many phases instead of R−1: latency-friendly at scale,
	// but the interior ranks' 2-child fan-in caps bandwidth below the ring.
	BinaryTree
	// AllreduceAuto is not an algorithm but a selection policy: each
	// allreduce (each bucket, under the bucketed schedule) runs whatever
	// concrete algorithm BestAllreduceAlgo picks for its volume — small
	// latency-bound tail buckets get halving/tree, large ones keep
	// ring/hierarchical. Deliberately NOT in AllreduceAlgos: it is resolved
	// to a concrete algorithm, never swept as one.
	AllreduceAuto
)

// String returns the algorithm name.
func (a AllreduceAlgo) String() string {
	switch a {
	case RingRSAG:
		return "ring RS+AG"
	case RecursiveHalving:
		return "recursive halving"
	case FlatTree:
		return "flat tree"
	case Hierarchical:
		return "hierarchical 2-level"
	case BinaryTree:
		return "binary tree"
	case AllreduceAuto:
		return "auto"
	default:
		return "unknown"
	}
}

// ShortString returns a compact algorithm tag for dense figure cells.
func (a AllreduceAlgo) ShortString() string {
	switch a {
	case RingRSAG:
		return "ring"
	case RecursiveHalving:
		return "halving"
	case FlatTree:
		return "flat"
	case Hierarchical:
		return "hier"
	case BinaryTree:
		return "tree"
	case AllreduceAuto:
		return "auto"
	default:
		return "?"
	}
}

// AllreduceAlgos lists the modeled algorithms.
var AllreduceAlgos = []AllreduceAlgo{RingRSAG, RecursiveHalving, FlatTree, Hierarchical, BinaryTree}

// HierGroupSize returns the intra-node group size of the Hierarchical
// allreduce for a communicator of r ranks: the paper's cluster packs two
// sockets (ranks) per node, so groups of 2 whenever r divides evenly; odd or
// trivial sizes fall back to 1 (plain ring).
func HierGroupSize(r int) int {
	if r > 2 && r%2 == 0 {
		return 2
	}
	return 1
}

// AllreduceTimeAlgo returns the modeled duration of an allreduce of bytes
// per rank under the chosen algorithm (AllreduceAuto: the cost-model
// minimum, see BestAllreduceAlgo).
func (p *Pricer) AllreduceTimeAlgo(algo AllreduceAlgo, bytes float64) float64 {
	return p.time(op{kind: opAllreduce, algo: algo, bytes: bytes})
}

// BestAllreduceAlgo returns the fastest modeled algorithm and its time for
// the given volume — what a tuned communication library would pick.
func (p *Pricer) BestAllreduceAlgo(bytes float64) (AllreduceAlgo, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.best(bytes)
}

// best is BestAllreduceAlgo with p.mu held.
func (p *Pricer) best(bytes float64) (AllreduceAlgo, float64) {
	best, bestT := RingRSAG, math.Inf(1)
	for _, a := range AllreduceAlgos {
		if t := p.lookup(op{kind: opAllreduce, algo: a, bytes: bytes}, false).dur; t < bestT {
			best, bestT = a, t
		}
	}
	return best, bestT
}

// allreduce evaluates one concrete allreduce algorithm (size > 1).
func (p *Pricer) allreduce(algo AllreduceAlgo, bytes float64) float64 {
	r := p.size
	ring := func() float64 {
		return p.fab.PhaseTimeN(p.Topo, p.ringFlows(bytes/float64(r)), 2*float64(r-1))
	}
	switch algo {
	case RecursiveHalving:
		// Reduce-scatter by recursive halving then all-gather by recursive
		// doubling: at step k the partner distance is 2^k and the volume
		// halves; 2·ceil(log2 R) phases in total. For non-powers of two we
		// charge the power-of-two envelope (standard practice).
		steps := bits.Len(uint(r - 1))
		var total float64
		vol := bytes / 2
		for k := 0; k < steps; k++ {
			dist := 1 << k
			p.flows = p.flows[:0]
			for i := 0; i < r; i++ {
				p.flows = append(p.flows, fabric.Flow{Src: i, Dst: (i + dist) % r, Bytes: vol})
			}
			total += p.fab.PhaseTimeN(p.Topo, p.flows, 2) // RS phase + mirrored AG phase
			vol /= 2
		}
		return total
	case FlatTree:
		var total float64
		p.flows = p.flows[:0]
		for i := 1; i < r; i++ {
			p.flows = append(p.flows, fabric.Flow{Src: i, Dst: 0, Bytes: bytes})
		}
		total += p.fab.PhaseTime(p.Topo, p.flows)
		p.flows = p.flows[:0]
		for i := 1; i < r; i++ {
			p.flows = append(p.flows, fabric.Flow{Src: 0, Dst: i, Bytes: bytes})
		}
		return total + p.fab.PhaseTime(p.Topo, p.flows)
	case Hierarchical:
		g := HierGroupSize(r)
		if g <= 1 {
			return ring()
		}
		n := r / g // nodes
		var total float64
		// Intra-node ring phase: rank i sends bytes/G to the next rank of its
		// group; G−1 such phases reduce-scatter, G−1 more all-gather at the
		// end. Group neighbours share a leaf, so these phases never cross the
		// trunk and pay the short latency.
		p.flows = p.flows[:0]
		for i := 0; i < r; i++ {
			base := (i / g) * g
			p.flows = append(p.flows, fabric.Flow{Src: i, Dst: base + (i-base+1)%g, Bytes: bytes / float64(g)})
		}
		total += p.fab.PhaseTimeN(p.Topo, p.flows, 2*float64(g-1))
		if n > 1 {
			// Inter-node phase: G concurrent rings (one per local shard
			// index), each allreducing bytes/G over the n nodes — every rank
			// sends bytes/R to its same-index peer in the next node.
			p.flows = p.flows[:0]
			for i := 0; i < r; i++ {
				p.flows = append(p.flows, fabric.Flow{Src: i, Dst: (i + g) % r, Bytes: bytes / float64(r)})
			}
			total += p.fab.PhaseTimeN(p.Topo, p.flows, 2*float64(n-1))
		}
		return total
	case BinaryTree:
		// Double binary tree, pipelined: tree A is the heap-order tree over
		// ranks, tree B its mirror (heap order over reversed ids), each
		// carrying half the message split into chunks. In steady state every
		// tree edge moves one chunk up (reduce) and one down (broadcast) per
		// step — full-duplex links charge the directions separately — and the
		// pipeline drains after depth-of-both-passes + chunks − 1 steps. The
		// chunk count adapts to the message size (see BinaryTreeChunks).
		depth := bits.Len(uint(r - 1))
		chunks := BinaryTreeChunks(bytes, r)
		per := bytes / 2 / float64(chunks)
		p.flows = p.flows[:0]
		for i := 1; i < r; i++ {
			pa := (i - 1) / 2 // tree A parent (heap order)
			p.flows = append(p.flows,
				fabric.Flow{Src: i, Dst: pa, Bytes: per},
				fabric.Flow{Src: pa, Dst: i, Bytes: per})
			// Tree B: the same heap shape over reversed rank ids, so interior
			// ranks of tree A are leaves of tree B and vice versa.
			child, pb := r-1-i, r-1-(i-1)/2
			p.flows = append(p.flows,
				fabric.Flow{Src: child, Dst: pb, Bytes: per},
				fabric.Flow{Src: pb, Dst: child, Bytes: per})
		}
		steps := 2*depth + chunks - 1
		return p.fab.PhaseTimeN(p.Topo, p.flows, float64(steps))
	default:
		return ring()
	}
}

// binaryTreeChunkRef is the reference chunk volume of the pipelined binary
// tree's dynamic chunking: the per-chunk payload at which one phase's
// serialization time is comparable to its wire latency on the modeled
// fabrics, so chunks much smaller waste steps on latency and chunks much
// larger stall the pipeline fill.
const binaryTreeChunkRef = 256 << 10

// BinaryTreeChunks returns the pipeline chunk count for an allreduce of
// bytes per rank over r ranks. Like NCCL's dynamic chunking the count grows
// with the message instead of being fixed: balancing the pipeline-fill term
// (∝ 1/chunks) against the per-step latency term (∝ chunks) puts the
// optimum near √(half-message / reference chunk), clamped to one chunk for
// latency-bound messages and to 4·depth once the pipeline is saturated —
// beyond that, extra steps only add latency.
func BinaryTreeChunks(bytes float64, r int) int {
	depth := bits.Len(uint(r - 1))
	if depth < 1 {
		depth = 1
	}
	c := int(math.Ceil(math.Sqrt(bytes / 2 / binaryTreeChunkRef)))
	if c < 1 {
		c = 1
	}
	if lim := 4 * depth; c > lim {
		c = lim
	}
	return c
}
