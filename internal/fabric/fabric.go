// Package fabric models the two interconnects of §V at link granularity:
// the UPI twisted hypercube of the 8-socket Inspur TS860M5 node (Fig. 3) and
// the Intel OmniPath pruned fat-tree of the 64-socket cluster (Fig. 4).
// Collective cost estimation works by placing flows on routes and charging
// the bottleneck link — which is what makes, e.g., the twisted hypercube's
// 2-hop pairs limit alltoall scaling from 4 to 8 sockets (Fig. 15).
package fabric

import (
	"fmt"
	"math"
)

// Flow is one point-to-point transfer of Bytes from Src to Dst.
type Flow struct {
	Src, Dst int
	Bytes    float64
}

// Topology describes an interconnect between sockets.
type Topology interface {
	// Name labels the topology in experiment output.
	Name() string
	// NumSockets returns the endpoint count.
	NumSockets() int
	// Route returns the link IDs traversed from a to b (empty for a==b).
	Route(a, b int) []int
	// LinkBandwidth returns bytes/s of one direction of link id.
	LinkBandwidth(id int) float64
	// Latency returns the end-to-end latency in seconds between a and b.
	Latency(a, b int) float64
	// CopyOverhead is a multiplier ≥ 1 on bytes that models software copies
	// through the network stack (≈1 for UPI non-temporal stores, >1 for a
	// NIC-based fabric, per §V-C).
	CopyOverhead() float64
}

// Scratch prices communication phases (PhaseTime) with a reusable link-load
// accumulator. Link IDs are small dense integers in every modeled topology,
// so a phase's loads live in a LoadSet; after warmup a phase evaluation
// performs no heap allocation. Not safe for concurrent use.
type Scratch struct {
	phase    LoadSet // the current phase's loads, reset on return
	acc      *LoadSet
	accScale float64 // phase multiplicity for accumulation (0 ⇒ 1)
}

// LoadSet aggregates per-link byte loads across phases — one collective's
// total footprint on every link it touches, the record the contention epoch
// shares bandwidth over, and a Scratch's one phase. It indexes by dense
// link ID and reuses its slices, so accumulating and copying allocate
// nothing after warmup. Not safe for concurrent use.
type LoadSet struct {
	load    []float64
	touched []int
}

// Reset clears the set for reuse, zeroing only the touched entries.
func (ls *LoadSet) Reset() {
	for _, link := range ls.touched {
		ls.load[link] = 0
	}
	ls.touched = ls.touched[:0]
}

// Add accumulates bytes onto link id.
func (ls *LoadSet) Add(link int, bytes float64) {
	for link >= len(ls.load) {
		ls.load = append(ls.load, 0)
	}
	if ls.load[link] == 0 {
		ls.touched = append(ls.touched, link)
	}
	ls.load[link] += bytes
}

// Links returns the IDs with non-zero load. The slice is owned by the set
// and valid until the next Reset.
func (ls *LoadSet) Links() []int { return ls.touched }

// Load returns the accumulated bytes on link id.
func (ls *LoadSet) Load(link int) float64 {
	if link >= len(ls.load) {
		return 0
	}
	return ls.load[link]
}

// CopyFrom resets ls and copies src's loads into it, reusing capacity.
func (ls *LoadSet) CopyFrom(src *LoadSet) {
	ls.Reset()
	for _, link := range src.touched {
		ls.Add(link, src.load[link])
	}
}

// Accumulate directs every subsequent PhaseTime call to also add each
// flow's per-link bytes (copy overhead included) into ls, until called
// again; nil detaches. It returns the previously attached set, so scopes
// that must not pollute the caller's aggregate (e.g. probing candidate
// algorithms before charging the winner) can save and restore. This is the
// hook the contention model uses to collect a collective's whole-operation
// link footprint from the existing multi-phase cost models without
// duplicating them.
func (s *Scratch) Accumulate(ls *LoadSet) *LoadSet {
	prev := s.acc
	s.acc = ls
	return prev
}

// PhaseTimeN charges n identical phases of the given flows: the returned
// duration is n × PhaseTime, and the flows' per-link loads accumulate
// n-fold into any attached LoadSet. Cost models that price "k phases of
// this exchange pattern" by multiplying a single placement must use this
// entry point, or a collective's aggregate link footprint would count only
// one of its phases.
func (s *Scratch) PhaseTimeN(t Topology, flows []Flow, n float64) float64 {
	s.accScale = n
	d := s.PhaseTime(t, flows)
	s.accScale = 0
	return n * d
}

// PhaseTime returns the duration of a communication phase in which all
// flows proceed concurrently: every flow's bytes are placed on each link of
// its route, and the phase lasts until the most loaded link drains, plus
// the largest path latency. A phase with no flows costs zero.
func (s *Scratch) PhaseTime(t Topology, flows []Flow) float64 {
	var maxLat float64
	ov := t.CopyOverhead()
	for _, f := range flows {
		if f.Src == f.Dst || f.Bytes <= 0 {
			continue
		}
		for _, link := range t.Route(f.Src, f.Dst) {
			s.phase.Add(link, f.Bytes*ov)
			if s.acc != nil {
				scale := s.accScale
				if scale == 0 {
					scale = 1
				}
				s.acc.Add(link, f.Bytes*ov*scale)
			}
		}
		if l := t.Latency(f.Src, f.Dst); l > maxLat {
			maxLat = l
		}
	}
	var worst float64
	for _, link := range s.phase.Links() {
		if d := s.phase.Load(link) / t.LinkBandwidth(link); d > worst {
			worst = d
		}
	}
	s.phase.Reset()
	if worst == 0 {
		return 0
	}
	return worst + maxLat
}

// TwistedHypercube is the 8-socket UPI fabric of Fig. 3: every socket has 3
// UPI links; sockets are arranged so that 3 neighbours are one hop away and
// the remaining 4 are two hops (diameter 2). Each link carries ~22 GB/s per
// direction; 12 unique links give ~260 GB/s aggregate.
type TwistedHypercube struct {
	adj      [8][8]int // link id +1, or 0 if not adjacent
	routeTbl [8][8][]int
	linkBW   float64
}

// NewTwistedHypercube builds the 8-socket twisted hypercube with the given
// per-direction link bandwidth in bytes/s (the paper's UPI ≈ 22e9).
func NewTwistedHypercube(linkBW float64) *TwistedHypercube {
	t := &TwistedHypercube{linkBW: linkBW}
	edges := [][2]int{
		// dimension 0
		{0, 1}, {2, 3}, {4, 5}, {6, 7},
		// dimension 1
		{0, 2}, {1, 3}, {4, 6}, {5, 7},
		// dimension 2, twisted: straight edges (0,4),(2,6) but crossed
		// (1,7),(3,5), which cuts the diameter from 3 to 2.
		{0, 4}, {2, 6}, {1, 7}, {3, 5},
	}
	for id, e := range edges {
		t.adj[e[0]][e[1]] = id + 1
		t.adj[e[1]][e[0]] = id + 1
	}
	// Precompute shortest routes by BFS (diameter is 2, so at most 2 links).
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			if l := t.adj[a][b]; l != 0 {
				t.routeTbl[a][b] = []int{l - 1}
				continue
			}
			found := false
			for mid := 0; mid < 8 && !found; mid++ {
				if t.adj[a][mid] != 0 && t.adj[mid][b] != 0 {
					t.routeTbl[a][b] = []int{t.adj[a][mid] - 1, t.adj[mid][b] - 1}
					found = true
				}
			}
			if !found {
				panic(fmt.Sprintf("fabric: twisted hypercube diameter >2 between %d and %d", a, b))
			}
		}
	}
	return t
}

// Name implements Topology.
func (t *TwistedHypercube) Name() string { return "UPI twisted hypercube (8S)" }

// NumSockets implements Topology.
func (t *TwistedHypercube) NumSockets() int { return 8 }

// Route implements Topology.
func (t *TwistedHypercube) Route(a, b int) []int { return t.routeTbl[a][b] }

// LinkBandwidth implements Topology.
func (t *TwistedHypercube) LinkBandwidth(int) float64 { return t.linkBW }

// Latency implements Topology: sub-microsecond per UPI hop.
func (t *TwistedHypercube) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	return 0.3e-6 * float64(len(t.routeTbl[a][b]))
}

// CopyOverhead implements Topology: UPI non-temporal full-cacheline stores
// move data without extra software copies (§V-C).
func (t *TwistedHypercube) CopyOverhead() float64 { return 1.0 }

// Hops returns the hop count between two sockets (tests and analysis).
func (t *TwistedHypercube) Hops(a, b int) int { return len(t.routeTbl[a][b]) }

// PrunedFatTree is the 64-socket OPA cluster of Fig. 4: every socket has its
// own 100G adapter; sockets 0..31 hang off leaf switch 0 and 32..63 off leaf
// switch 1; the two leaves connect through a root trunk pruned 2:1 (16
// uplinks for 32 downlinks per leaf).
type PrunedFatTree struct {
	sockets int
	hostBW  float64 // per-adapter bytes/s
	trunkBW float64 // aggregated leaf-root bytes/s
	perLeaf int
	latency float64
	copyOvh float64
	// routeTbl[a*sockets+b] is the precomputed link list of route a→b,
	// all views into one backing array: Route is on the per-flow path of
	// every modeled collective and must not allocate.
	routeTbl [][]int
}

// NewPrunedFatTree builds the OPA cluster model for the given socket count
// (≤ 64). hostBW is the adapter bandwidth (100G ≈ 12.5e9 B/s); the trunk is
// pruned to half the leaf's aggregate host bandwidth (the paper's 2:1, 16
// uplinks for 32 downlinks per leaf).
func NewPrunedFatTree(sockets int, hostBW float64) *PrunedFatTree {
	return NewPrunedFatTreeUplinks(sockets, hostBW, 16)
}

// NewPrunedFatTreeUplinks is NewPrunedFatTree with an explicit per-leaf
// uplink count — the oversubscription knob of the contention sweeps: 32
// uplinks is a non-blocking 1:1 tree, 16 the paper's 2:1 pruning, 8 a 4:1
// trunk, and so on.
func NewPrunedFatTreeUplinks(sockets int, hostBW float64, uplinks int) *PrunedFatTree {
	if sockets < 1 || sockets > 64 {
		panic(fmt.Sprintf("fabric: fat tree supports 1..64 sockets, got %d", sockets))
	}
	if uplinks < 1 {
		panic(fmt.Sprintf("fabric: fat tree needs at least 1 uplink per leaf, got %d", uplinks))
	}
	p := &PrunedFatTree{
		sockets: sockets,
		hostBW:  hostBW,
		trunkBW: float64(uplinks) * hostBW,
		perLeaf: 32,
		latency: 1e-6, // §V-B: 100G connectivity at 1 µs latency
		copyOvh: 1.25, // data is copied through the NIC stack (§V-C)
	}
	p.routeTbl = make([][]int, sockets*sockets)
	backing := make([]int, 0, 3*sockets*sockets)
	for a := 0; a < sockets; a++ {
		for b := 0; b < sockets; b++ {
			if a == b {
				continue
			}
			start := len(backing)
			backing = append(backing, p.upLink(a))
			if p.leafOf(a) != p.leafOf(b) {
				backing = append(backing, p.trunkLink(p.leafOf(a)))
			}
			backing = append(backing, p.downLink(b))
			p.routeTbl[a*sockets+b] = backing[start:len(backing):len(backing)]
		}
	}
	return p
}

// Link IDs (OPA links are full duplex, so each direction is its own
// resource): id s in [0, sockets) is socket s's uplink (socket→leaf);
// sockets+s is its downlink (leaf→socket); 2*sockets and 2*sockets+1 are the
// two directions of the pruned root trunk.
func (p *PrunedFatTree) upLink(s int) int   { return s }
func (p *PrunedFatTree) downLink(s int) int { return p.sockets + s }
func (p *PrunedFatTree) trunkLink(fromLeaf int) int {
	return 2*p.sockets + fromLeaf
}

func (p *PrunedFatTree) leafOf(s int) int { return s / p.perLeaf }

// Name implements Topology.
func (p *PrunedFatTree) Name() string { return "OPA pruned fat-tree (64S)" }

// NumSockets implements Topology.
func (p *PrunedFatTree) NumSockets() int { return p.sockets }

// Route implements Topology.
func (p *PrunedFatTree) Route(a, b int) []int {
	return p.routeTbl[a*p.sockets+b]
}

// LinkBandwidth implements Topology.
func (p *PrunedFatTree) LinkBandwidth(id int) float64 {
	if id >= 2*p.sockets {
		return p.trunkBW
	}
	return p.hostBW
}

// Latency implements Topology.
func (p *PrunedFatTree) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	if p.leafOf(a) == p.leafOf(b) {
		return p.latency
	}
	return 2 * p.latency
}

// CopyOverhead implements Topology.
func (p *PrunedFatTree) CopyOverhead() float64 { return p.copyOvh }

// Bisection returns the bisection bandwidth of the configured system in
// bytes/s (tests compare it against the paper's 200 GB/s between leaves).
func (p *PrunedFatTree) Bisection() float64 {
	if p.sockets <= p.perLeaf {
		return math.Inf(1) // single leaf, non-blocking
	}
	return p.trunkBW
}

// TrunkLinks returns the link IDs of the pruned root trunk's two
// directions, or nil when the configured system fits a single leaf and no
// route crosses the trunk. The failure-injection and contention sweeps use
// these to degrade or oversubscribe the shared bottleneck by ID.
func (p *PrunedFatTree) TrunkLinks() []int {
	if p.sockets <= p.perLeaf {
		return nil
	}
	return []int{p.trunkLink(0), p.trunkLink(1)}
}
