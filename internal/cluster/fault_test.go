package cluster

import (
	"strings"
	"testing"
)

func TestRandomChurnDeterministic(t *testing.T) {
	a := RandomChurn(7, 16, 4, 200, 0.1)
	b := RandomChurn(7, 16, 4, 200, 0.1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different schedules: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	if len(a.Events) == 0 {
		t.Fatal("rate 0.1 over 200 boundaries produced no failures")
	}
	c := RandomChurn(8, 16, 4, 200, 0.1)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRandomChurnRespectsBounds(t *testing.T) {
	const ranks, minRanks = 8, 3
	p := RandomChurn(1, ranks, minRanks, 500, 0.5)
	if got, max := len(p.Events), ranks-minRanks; got > max {
		t.Fatalf("%d failures exceed the %d allowed before minRanks", got, max)
	}
	live := ranks
	prev := 0
	for _, ev := range p.Events {
		if ev.Kind != RankFail {
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
		if ev.Iter <= prev {
			t.Fatalf("events not strictly increasing: %d after %d", ev.Iter, prev)
		}
		if ev.Rank < 0 || ev.Rank >= live {
			t.Fatalf("rank %d out of range for %d live ranks", ev.Rank, live)
		}
		live--
		prev = ev.Iter
	}
	if live < minRanks {
		t.Fatalf("schedule drops below minRanks: %d < %d", live, minRanks)
	}
	// Counter-based draws: a longer horizon extends the schedule without
	// perturbing the earlier boundaries.
	long := RandomChurn(1, ranks, 1, 1000, 0.5)
	for i, ev := range p.Events {
		if i >= len(long.Events) || long.Events[i] != ev {
			t.Fatalf("longer horizon rewrote boundary %d", ev.Iter)
		}
	}
}

func TestFaultPlanResolved(t *testing.T) {
	p := &FaultPlan{Events: []FaultEvent{
		{Iter: 3, Kind: Rescale, NewRanks: 4},
		{Iter: 2, Kind: RankFail, Rank: 2},
		{Iter: 99, Kind: RankFail, Rank: 0}, // past the run: dropped
	}}
	evs, err := p.Resolved(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (the iter-99 one never fires)", len(evs))
	}
	if evs[0].Iter != 2 || evs[0].Kind != RankFail {
		t.Fatalf("first event %v, want rank-fail at iter 2", evs[0])
	}
	if evs[1].Iter != 3 || evs[1].Kind != Rescale {
		t.Fatalf("second event %v, want rescale at iter 3", evs[1])
	}

	// Two events on one boundary are rejected.
	dup := &FaultPlan{Events: []FaultEvent{
		{Iter: 3, Kind: RankFail, Rank: 0},
		{Iter: 3, Kind: RankFail, Rank: 1},
	}}
	if _, err := dup.Resolved(10); err == nil || !strings.Contains(err.Error(), "iteration 3") {
		t.Fatalf("duplicate boundary not rejected: %v", err)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   FaultEvent
	}{
		{"unknown kind", FaultEvent{Iter: 1, Kind: FaultKind(9)}},
		{"no Iter", FaultEvent{Kind: RankFail}},
		{"negative rank", FaultEvent{Iter: 1, Kind: RankFail, Rank: -1}},
		{"bad NewRanks", FaultEvent{Iter: 1, Kind: Rescale, NewRanks: 0}},
	} {
		p := &FaultPlan{Events: []FaultEvent{tc.ev}}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	ok := &FaultPlan{Events: []FaultEvent{{Iter: 1, Kind: RankFail, Rank: 0}, {Iter: 3, Kind: Rescale, NewRanks: 2}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}
