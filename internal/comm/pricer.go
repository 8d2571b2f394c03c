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
// per-link footprint is cached beside it, and the pricer keeps its job's
// contention epoch (see contend). Safe for concurrent use: mu guards the
// scratch, the memo and the epoch. Leaders charge one at a time, in global
// issue order under either engine; rank-context callers (AllreduceTimeAlgo,
// BestAllreduceAlgo) may overlap them under the goroutine engine.
type Pricer struct {
	Topo fabric.Topology
	size int

	mu    sync.Mutex
	flows []fabric.Flow
	fab   fabric.Scratch
	// memo maps an operation to its price. A nil map disables memoisation
	// (tests compare the memoised pricer against a recomputing one).
	memo map[op]*price
	// inflight is the contention epoch: the charged collectives still in
	// flight, in charge order, across every channel and rank of the job.
	inflight []flight
}

// flight is one charged collective's window on the contention epoch. loads
// is its memo entry's footprint, which is never written again once loaded.
type flight struct {
	start, finish float64 // scaled (post-CommSlowdown) virtual time
	loads         *fabric.LoadSet
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
	opAlltoall
	opScatter
	opGather
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

// charge prices o for a leader of eng's job: the isolated duration,
// stretched against the contention epoch from the rendezvous start when the
// job charges contention (the unchanged isolated time otherwise,
// bit-identically).
func (p *Pricer) charge(eng *cluster.Engine, start float64, o op) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !eng.Cfg.Contention {
		return p.lookup(o, false).dur
	}
	ent := p.lookup(o, true)
	return p.contend(eng.Cfg.CommSlowdown(), &ent.loads, start, ent.dur)
}

// contend prices a collective against the contention epoch and registers
// it there. slow is the job's CommSlowdown, start the operation's virtual
// start (the rendezvous start the leader received), iso its isolated
// duration (pre-CommSlowdown, what the leader would otherwise return), and
// loads its aggregate per-link byte footprint (every phase summed, copy
// overhead included), which the epoch keeps a pointer to until the flight
// ends. The result replaces iso as the leader's; the engine's CommSlowdown
// multiply then reproduces the registered finish. Caller holds p.mu.
//
// Sharing discipline — causal residual-drain (work-conserving shared
// queue): each already-charged collective still in flight at start is
// assumed to drain its link bytes at a uniform rate across its own window,
// and the newcomer's bottleneck link additionally carries every such
// operation's residual bytes — the fraction of its load falling inside
// [start, its finish). The newcomer's duration becomes
//
//	iso + max over its links l of  Σ_f residual_f(l) / bandwidth(l)
//
// Earlier operations keep their already-charged finishes: their Waits may
// already have resolved, so retroactive stretching would break causality —
// instead the op that arrives second pays for the sharing. The discipline
// is deterministic (leaders run in global issue order: under cluster.Run
// every rank blocks in each rendezvous, so collective k's leader always
// runs before k+1's; CollectiveAll issues them in that order) and bounded
// both ways: the result is ≥ iso (the residual term is non-negative) and
// each overlapping flight contributes at most its own isolated duration
// (its per-link bytes/bandwidth never exceed its phase times), so
// concurrent operations never finish later than they would serialized.
// Operations whose windows do not overlap — including everything on MPI's
// single in-order channel — are charged exactly iso.
func (p *Pricer) contend(slow float64, loads *fabric.LoadSet, start, iso float64) float64 {
	isoS := iso * slow
	// Drop flights that ended before this operation starts. (A later
	// charge on another channel can still start earlier in virtual time;
	// a flight pruned here that would have overlapped it slightly
	// under-counts that rare inversion, in exchange for a bounded epoch.)
	kept := p.inflight[:0]
	for _, f := range p.inflight {
		if f.finish <= start {
			continue
		}
		kept = append(kept, f)
	}
	clear(p.inflight[len(kept):])
	p.inflight = kept

	var delta float64
	for _, link := range loads.Links() {
		var resid float64
		for _, f := range p.inflight {
			if l := f.loads.Load(link); l > 0 {
				// Overlap window within f, as a fraction of f's drain.
				lo := start
				if f.start > lo {
					lo = f.start
				}
				resid += l * (f.finish - lo) / (f.finish - f.start)
			}
		}
		// Residual bytes drain at the backend's effective rate: CommSlowdown
		// models a backend that cannot saturate the wire, so in scaled time
		// every link runs at bandwidth/slow — for the queued residual just
		// like for the newcomer's own bytes.
		if d := resid * slow / p.Topo.LinkBandwidth(link); d > delta {
			delta = d
		}
	}

	durS := isoS + delta
	if durS > 0 && len(loads.Links()) > 0 {
		p.inflight = append(p.inflight, flight{start: start, finish: start + durS, loads: loads})
	}
	return durS / slow
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
