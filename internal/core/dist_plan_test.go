package core

import (
	"math"
	"reflect"
	"testing"
)

// The iteration is a list, so its structure can be checked without running
// it: hook 5 of the configuration matrix. These tests build the plan of every
// configuration of its static view (forEachPlanConfig) and read the
// properties off the steps. They count no allocations, so they run in
// parallel (after the tests that do).

// walk calls fn for every step rank executes, in order: the prologue, then
// each iteration's due steps.
func (p *plan) walk(rank int, fn func(s *step)) {
	steps := p.prologue
	for it := -1; it < p.iters; it++ {
		for i := range steps {
			if s := &steps[i]; p.due(s, it, rank) {
				fn(s)
			}
		}
		steps = p.iter
	}
}

// TestPlanValidMatrix: every configuration of the matrix is one Validate
// accepts, so the properties below are stated over runnable plans.
func TestPlanValidMatrix(t *testing.T) {
	t.Parallel()
	n := 0
	forEachPlanConfig(func(name string, dc DistConfig) {
		n++
		if err := dc.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
	if want := 3 * 6 * 2 * 3 * 3 * 2 * 2; n != want {
		t.Errorf("matrix has %d configurations, want %d", n, want)
	}
}

// TestPlanIsSPMD: every rank issues the same ordered sequence of
// collectives — kind, label, channel, root and volume. A mismatch would make
// the goroutine engine report a deadlock, and the evaluator, which issues
// each collective once for all ranks, would price a program no rank runs.
func TestPlanIsSPMD(t *testing.T) {
	t.Parallel()
	type collective struct {
		coll          collKind
		label         string
		channel, root int
		bytes         float64
	}
	forEachPlanConfig(func(name string, dc DistConfig) {
		p := dc.buildPlan()
		var want []collective
		p.walk(0, func(s *step) {
			if s.kind == stepCollective {
				want = append(want, collective{s.coll, s.label, s.channel, s.root, s.bytes})
			}
		})
		if len(want) == 0 {
			t.Fatalf("%s: rank 0 issues no collective", name)
		}
		for rank := 1; rank < dc.Ranks; rank++ {
			n := 0
			p.walk(rank, func(s *step) {
				if s.kind != stepCollective {
					return
				}
				if got := (collective{s.coll, s.label, s.channel, s.root, s.bytes}); n >= len(want) || got != want[n] {
					t.Fatalf("%s: rank %d's collective #%d is %+v, not rank 0's", name, rank, n, got)
				}
				n++
			})
			if n != len(want) {
				t.Fatalf("%s: rank %d issues %d collectives, rank 0 %d", name, rank, n, len(want))
			}
		}
	})
}

// TestPlanHandleDiscipline: a handle slot is never reissued while pending
// and never waited twice for one issue (a wait before the slot's first issue
// is the free wait on a zero Handle the background drains start with), and
// at the end of the run only the documented background drains — the last
// checkpoint and the last cold-tier write-back — are still pending.
func TestPlanHandleDiscipline(t *testing.T) {
	t.Parallel()
	const (
		fresh = iota
		pending
		waited
	)
	forEachPlanConfig(func(name string, dc DistConfig) {
		p := dc.buildPlan()
		for _, rank := range []int{0, dc.Ranks - 1} {
			state, label := make([]int, p.slots), make([]string, p.slots)
			p.walk(rank, func(s *step) {
				switch s.kind {
				case stepAsync, stepCollective:
					if state[s.slot] == pending {
						t.Fatalf("%s rank %d: slot %d (%s) reissued as %s while pending", name, rank, s.slot, label[s.slot], s.label)
					}
					state[s.slot], label[s.slot] = pending, s.label
				case stepWait:
					if state[s.slot] == waited {
						t.Fatalf("%s rank %d: slot %d (%s) waited twice for one issue", name, rank, s.slot, label[s.slot])
					}
					if state[s.slot] == pending {
						state[s.slot] = waited
					}
				}
			})
			for slot, st := range state {
				if st == fresh {
					t.Errorf("%s rank %d: slot %d is never issued", name, rank, slot)
				}
				if st == pending && label[slot] != "checkpoint" && label[slot] != "coldtier-wb" {
					t.Errorf("%s rank %d: slot %d (%s) is still pending at the end of the run", name, rank, slot, label[slot])
				}
			}
		}
	})
}

// TestPlanFlatEqualsBucketedInTotal: bucketing changes the interleaving,
// not the work — per-iteration compute seconds of the flat, default-bucketed
// and 1 MiB-bucketed plans of one configuration agree to 1e-12 relative, and
// their allreduce volumes exactly.
func TestPlanFlatEqualsBucketedInTotal(t *testing.T) {
	t.Parallel()
	totals := func(dc DistConfig, rank int) (compute, arBytes float64) {
		p := dc.buildPlan()
		for i := range p.iter {
			s := &p.iter[i]
			if s.kind == stepCompute {
				if s.cost != costFixed {
					compute += p.costs[rank][s.cost]
				} else {
					compute += s.seconds
				}
			}
			if s.kind == stepCollective && s.coll == collAllreduce {
				arBytes += s.bytes
			}
		}
		return compute, arBytes
	}
	forEachPlanConfig(func(name string, dc DistConfig) {
		if dc.BucketBytes != FlatBuckets {
			return
		}
		for _, rank := range []int{0, dc.Ranks - 1} {
			flatC, flatB := totals(dc, rank)
			if flatB != dc.Cfg.AllreduceBytes() {
				t.Errorf("%s: flat plan allreduces %v bytes, Eq. 1 says %v", name, flatB, dc.Cfg.AllreduceBytes())
			}
			for _, bucket := range []int{0, 1 << 20} {
				bk := dc
				bk.BucketBytes = bucket
				c, b := totals(bk, rank)
				if b != flatB {
					t.Errorf("%s bucket=%d: allreduce bytes %v, flat %v", name, bucket, b, flatB)
				}
				if math.Abs(c-flatC) > 1e-12*flatC {
					t.Errorf("%s bucket=%d rank %d: compute %v s/iter, flat %v", name, bucket, rank, c, flatC)
				}
			}
		}
	})
}

// TestPlanIgnoresExecutionMode: the builder never looks at RunCfg, so a
// functional run interprets exactly the list a timing run does — kernel ids
// included; the attached executor is the only difference.
func TestPlanIgnoresExecutionMode(t *testing.T) {
	t.Parallel()
	forEachPlanConfig(func(name string, dc DistConfig) {
		timing := dc.buildPlan()
		run := dc.Cfg
		dc.RunCfg = &run
		if functional := dc.buildPlan(); !reflect.DeepEqual(timing, functional) {
			t.Errorf("%s: timing and functional plans differ", name)
		}
	})
}

// TestPlanCollectivesPerIteration reads comm.calls_per_iter off the plan:
// under the default schedule two embedding alltoalls plus one allreduce per
// gradient bucket — 4 at the dist-func4 shape, 19 at sim-strong64's, the
// values the benchmark's commPlan derives from the config alone.
func TestPlanCollectivesPerIteration(t *testing.T) {
	for _, c := range []struct {
		dc   DistConfig
		want int
	}{{at(MLPerf, 4, defaults), 4}, {simStrong64(1), 19}} {
		n := 0
		for _, s := range c.dc.buildPlan().iter {
			if s.kind == stepCollective {
				n++
			}
		}
		if n != c.want {
			t.Errorf("%s on %d ranks: %d collectives per iteration, want %d", c.dc.Cfg.Name, c.dc.Ranks, n, c.want)
		}
	}
}
