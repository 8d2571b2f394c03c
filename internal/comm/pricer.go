package comm

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// Pricer is the collective cost model over one topology at one communicator
// size: flows are placed on routes and the bottleneck link paces each phase.
// It is rank-free — a job's ranks share the one their engine holds (New),
// and whoever only wants a price builds one from (topo, ranks), no cluster.
//
// For a fixed topology and size a collective's isolated duration is a pure
// function of (kind, algorithm, root, bytes): the link-load scratch is zeroed
// after every phase and flows are placed in a fixed order. The pricer
// memoises it under that key and returns the very float64 recomputing would,
// so virtual times stay bit-identical while a steady-state iteration
// re-prices and allocates nothing; under contention-aware charging the
// per-link footprint is cached beside it. Safe for concurrent use: leaders
// come one at a time, but rank-context callers (the *Time methods) can
// overlap them under the goroutine engine.
type Pricer struct {
	Topo fabric.Topology
	size int

	mu    sync.Mutex
	flows []fabric.Flow
	fab   fabric.Scratch
	// memo maps an operation to its price. A nil map disables memoisation
	// (tests compare the memoised pricer against a recomputing one).
	memo map[op]*price
}

// NewPricer returns the cost model for ranks sockets of topo.
func NewPricer(topo fabric.Topology, ranks int) *Pricer {
	return &Pricer{Topo: topo, size: ranks, memo: map[op]*price{}}
}

// Size returns the communicator size the pricer models.
func (p *Pricer) Size() int { return p.size }

type opKind uint8

const (
	opAllreduce opKind = iota // algo selects the algorithm
	opReduceScatter
	opAlltoall
	opScatter
	opGather
	opBroadcast
)

// op is everything a collective's isolated price depends on besides the
// pricer's own topology and size.
type op struct {
	kind  opKind
	algo  AllreduceAlgo
	root  int
	bytes float64
}

// price is one memo entry: the isolated duration and, once a contended
// charge has asked for it, the aggregate per-link byte footprint.
type price struct {
	dur    float64
	loads  fabric.LoadSet
	loaded bool
}

// lookup returns o's memo entry, computing it on first sight — and again,
// with the link footprint collected, the first time a caller needs loads.
// AllreduceAuto resolves to its concrete winner's entry. Caller holds p.mu.
func (p *Pricer) lookup(o op, loads bool) *price {
	ent := p.memo[o]
	if ent != nil && (ent.loaded || !loads) {
		return ent
	}
	if o.kind == opAllreduce && o.algo == AllreduceAuto {
		// The candidate sweep needs durations only, so the losers' flows
		// never reach a contention footprint.
		winner := o
		winner.algo, _ = p.best(o.bytes)
		ent = p.lookup(winner, loads)
	} else {
		if ent == nil {
			ent = &price{}
		}
		if loads {
			ent.loads.Reset()
			p.fab.Accumulate(&ent.loads)
		}
		ent.dur, ent.loaded = p.compute(o), loads
		p.fab.Accumulate(nil)
	}
	if p.memo != nil {
		p.memo[o] = ent
	}
	return ent
}

// time is the locked, duration-only lookup behind the exported methods.
func (p *Pricer) time(o op) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lookup(o, false).dur
}

// charge prices o for a leader: the isolated duration, stretched against
// eng's contention epoch from the rendezvous start when the engine charges
// contention (the unchanged isolated time otherwise, bit-identically).
func (p *Pricer) charge(eng *cluster.Engine, start float64, o op) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !eng.Cfg.Contention {
		return p.lookup(o, false).dur
	}
	ent := p.lookup(o, true)
	return eng.ChargeContended(p.Topo, &ent.loads, start, ent.dur)
}

// compute evaluates the flow model for one operation.
func (p *Pricer) compute(o op) float64 {
	r := p.size
	if r == 1 {
		return 0
	}
	switch o.kind {
	case opAllreduce:
		return p.allreduce(o.algo, o.bytes)
	case opReduceScatter:
		// Half of the ring allreduce. It places its own R−1 phases (rather
		// than halving the allreduce) so an attached contention footprint
		// counts exactly the phases charged; the value is bit-identical.
		return p.fab.PhaseTimeN(p.Topo, p.ringFlows(o.bytes/float64(r)), float64(r-1))
	case opAlltoall:
		if o.bytes <= 0 {
			return 0
		}
		var total float64
		for k := 1; k < r; k++ {
			p.flows = p.flows[:0]
			for i := 0; i < r; i++ {
				p.flows = append(p.flows, fabric.Flow{Src: i, Dst: (i + k) % r, Bytes: o.bytes})
			}
			total += p.fab.PhaseTime(p.Topo, p.flows)
		}
		return total
	case opScatter, opGather:
		if o.bytes <= 0 {
			return 0
		}
		p.flows = p.flows[:0]
		for j := 0; j < r; j++ {
			if j == o.root {
				continue
			}
			f := fabric.Flow{Src: o.root, Dst: j, Bytes: o.bytes}
			if o.kind == opGather {
				f.Src, f.Dst = j, o.root
			}
			p.flows = append(p.flows, f)
		}
		return p.fab.PhaseTime(p.Topo, p.flows)
	case opBroadcast:
		// Tree broadcast ≈ log2(R) phases of root-link transfers.
		var dur float64
		for n := 1; n < r; n *= 2 {
			p.flows = append(p.flows[:0], fabric.Flow{Src: 0, Dst: r - 1, Bytes: o.bytes})
			dur += p.fab.PhaseTime(p.Topo, p.flows)
		}
		return dur
	}
	panic("comm: unknown collective kind")
}

// ringFlows fills the scratch flow list with the neighbour exchanges of one
// ring phase.
func (p *Pricer) ringFlows(bytes float64) []fabric.Flow {
	p.flows = p.flows[:0]
	for i := 0; i < p.size; i++ {
		p.flows = append(p.flows, fabric.Flow{Src: i, Dst: (i + 1) % p.size, Bytes: bytes})
	}
	return p.flows
}

// AllreduceTime returns the modeled duration of a ring reduce-scatter +
// all-gather allreduce of bytes per rank: 2(R−1) neighbour phases moving
// bytes/R each.
func (p *Pricer) AllreduceTime(bytes float64) float64 {
	return p.time(op{kind: opAllreduce, algo: RingRSAG, bytes: bytes})
}

// AlltoallTime returns the modeled duration of a pairwise-exchange alltoall
// where every rank sends blockBytes to every other rank: R−1 phases, phase k
// pairing i with (i+k) mod R. Multi-hop partners load shared links, which is
// what keeps the 8-socket twisted hypercube from improving alltoall from 4
// to 8 sockets (Fig. 15).
func (p *Pricer) AlltoallTime(blockBytes float64) float64 {
	return p.time(op{kind: opAlltoall, bytes: blockBytes})
}

// ScatterTime returns the modeled duration of one scatter: the root sends
// blockBytes to every other rank; the root's injection link is the
// bottleneck, so cost ≈ (R−1)·blockBytes / root bandwidth.
func (p *Pricer) ScatterTime(root int, blockBytes float64) float64 {
	return p.time(op{kind: opScatter, root: root, bytes: blockBytes})
}
