package cluster

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// The deterministic failure injector. A FaultPlan scripts which ranks die
// (or how the fleet rescales) during a simulated run; the elastic driver in
// core replays the plan against the virtual clock. Failures take effect at
// iteration boundaries: a rank that dies mid-iteration is only *noticed*
// when the survivors next rendezvous with it — a collective that times out
// after DefaultDetectSeconds — so the boundary is where the cluster's state
// forks. Every event is pinned to the iteration boundary it fires at.

// FaultKind classifies a fault-plan event.
type FaultKind int

const (
	// RankFail kills one rank: survivors detect the death at their next
	// collective (a modeled timeout), roll back to the latest durable
	// checkpoint, take over the dead rank's table and data shards, and
	// replay the lost iterations at the surviving shape.
	RankFail FaultKind = iota
	// Rescale is a *graceful* shape change R → R′ at an iteration boundary:
	// the fleet drains a synchronous checkpoint, re-shards, and continues —
	// no detection timeout and no replay.
	Rescale
)

// String returns the event-kind label used in figures and logs.
func (k FaultKind) String() string {
	switch k {
	case RankFail:
		return "rank-fail"
	case Rescale:
		return "rescale"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// DefaultDetectSeconds is the modeled failure-detection latency: how long
// the survivors' next collective blocks before the runtime declares the
// missing rank dead (the MPI/CCL watchdog timeout). Charged once per
// RankFail on top of restore and replay.
const DefaultDetectSeconds = 1.0

// FaultEvent is one scripted fault.
type FaultEvent struct {
	// Iter (≥ 1) is the global iteration at whose start the event takes
	// effect.
	Iter int
	Kind FaultKind
	// Rank is the rank id that dies (RankFail), under the shape in effect
	// when the event fires.
	Rank int
	// NewRanks is the target rank count (Rescale).
	NewRanks int
}

// String renders the event for logs and figure notes.
func (ev FaultEvent) String() string {
	if ev.Kind == Rescale {
		return fmt.Sprintf("iter %d: rescale to %d ranks", ev.Iter, ev.NewRanks)
	}
	return fmt.Sprintf("iter %d: rank %d fails", ev.Iter, ev.Rank)
}

// FaultPlan is a deterministic schedule of fault events for one run.
type FaultPlan struct {
	Events []FaultEvent
}

// Validate checks every event for internal coherence (shape-dependent
// checks — rank ids against the live rank count, divisibility — are the
// driver's, which knows the evolving shape).
func (p *FaultPlan) Validate() error {
	for i, ev := range p.Events {
		if ev.Kind != RankFail && ev.Kind != Rescale {
			return fmt.Errorf("cluster: fault event %d: unknown kind %d", i, int(ev.Kind))
		}
		if ev.Iter < 1 {
			return fmt.Errorf("cluster: fault event %d: Iter=%d, want >= 1", i, ev.Iter)
		}
		if ev.Kind == RankFail && ev.Rank < 0 {
			return fmt.Errorf("cluster: fault event %d: Rank=%d, want >= 0", i, ev.Rank)
		}
		if ev.Kind == Rescale && ev.NewRanks < 1 {
			return fmt.Errorf("cluster: fault event %d: NewRanks=%d, want >= 1", i, ev.NewRanks)
		}
	}
	return nil
}

// Resolved validates the plan and returns its events normalized for a run
// of `iters` iterations: events at or past the run's end are dropped (they
// never fire) and the rest are sorted by iteration. Two events on one
// boundary are rejected — the recovery protocol handles one shape change
// per boundary.
func (p *FaultPlan) Resolved(iters int) ([]FaultEvent, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]FaultEvent, 0, len(p.Events))
	for _, ev := range p.Events {
		if ev.Iter >= iters {
			continue
		}
		out = append(out, ev)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	for i := 1; i < len(out); i++ {
		if out[i].Iter == out[i-1].Iter {
			return nil, fmt.Errorf("cluster: two fault events at iteration %d; one shape change per boundary", out[i].Iter)
		}
	}
	return out, nil
}

// RandomChurn builds a deterministic randomized churn schedule: at every
// iteration boundary, with probability rate, one uniformly-chosen live rank
// fails — until only minRanks survive. The draws for boundary i derive
// purely from (seed, i), so the schedule is reproducible, two plans with
// equal arguments are identical, and changing iters does not perturb the
// draws of earlier boundaries.
func RandomChurn(seed uint64, ranks, minRanks, iters int, rate float64) *FaultPlan {
	if minRanks < 1 {
		minRanks = 1
	}
	p := &FaultPlan{}
	live := ranks
	for it := 1; it < iters; it++ {
		if live <= minRanks {
			break
		}
		g := rng.Stream(seed).Key(uint64(it) * rng.Spread1)
		if g.Float64() >= rate {
			continue
		}
		p.Events = append(p.Events, FaultEvent{
			Iter: it,
			Kind: RankFail,
			Rank: int(g.Next() % uint64(live)),
		})
		live--
	}
	return p
}
