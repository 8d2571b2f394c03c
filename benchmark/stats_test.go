package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4), which is
	// what the driver computes over its runs.
	cases := []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7},
		{"two", []float64{1, 3}, 0.5, 2, 3.5},
		{"odd", []float64{5, 1, 3}, 1, 3, 5},
		{"ten unsorted", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{"even", []float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{"ties", []float64{2, 2, 2, 2, 2}, 2, 2, 2},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%s: quartiles = %v %v %v, want %v %v %v", c.name, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("%s: median = %v, want %v", c.name, m, c.q2)
		}
	}
	if s := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the function must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n          int
		pct, value float64
	}{
		{0, 0, 0},
		{5, 0, 5},       // too few even for the median: the maximum, flagged p0
		{19, 0, 19},     // 19 - ceil(9.5) = 9 beyond the median: still too few
		{20, 50, 10},    // exactly ten beyond the median
		{40, 75, 30},    // the issue's case: p75 over 40 steps
		{100, 90, 90},   // ten beyond p90
		{1000, 99, 990}, // ten beyond p99
		{4096, 99, 4056},
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		pct, v, n := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.value || n != c.n {
			t.Errorf("n=%d: tail = p%v %v (n=%d), want p%v %v", c.n, pct, v, n, c.pct, c.value)
		}
	}
}

func TestAllocsPerOp(t *testing.T) {
	cases := []struct{ mallocs, ops, want uint64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 1}, {19, 10, 1}, {2874, 1, 2874}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := allocsPerOp(c.mallocs, c.ops); got != c.want {
			t.Errorf("allocsPerOp(%d, %d) = %d, want %d", c.mallocs, c.ops, got, c.want)
		}
	}
}

func TestWorseningAndVerdict(t *testing.T) {
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if w := worsening("lower", 100, 110); !approx(w, 0.10) {
		t.Errorf("lower-is-better 100 -> 110: %v, want 0.10", w)
	}
	if w := worsening("higher", 100, 90); !approx(w, 0.10) {
		t.Errorf("higher-is-better 100 -> 90: %v, want 0.10", w)
	}
	if w := worsening("higher", 100, 120); !approx(w, -0.20) {
		t.Errorf("an improvement must be negative, got %v", w)
	}
	cases := []struct {
		name           string
		better         string
		bound          float64
		m1, s1, m2, s2 float64
		want           string
	}{
		{"within bound", "lower", 0.10, 100, 0.02, 105, 0.03, "agree"},
		{"second set better", "lower", 0.10, 100, 0.02, 50, 0.02, "disagree"},
		{"second set a little better", "higher", 0.10, 100, 0.02, 108, 0.02, "agree"},
		{"regression", "lower", 0.10, 100, 0.02, 115, 0.02, "disagree"},
		{"throughput drop", "higher", 0.10, 100, 0.02, 85, 0.02, "disagree"},
		{"noisy first set", "lower", 0.10, 100, 0.12, 101, 0.01, "unresolved"},
		{"noisy second set", "higher", 0.10, 100, 0.01, 100, 0.30, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.better, c.bound, c.m1, c.s1, c.m2, c.s2); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestWindowStats(t *testing.T) {
	op := func(ms float64, units, samples int) timedOp {
		return timedOp{opStat{units: units, samples: samples}, ms * float64(units) / 1e3}
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	cases := []struct {
		name      string
		ops       []timedOp
		window    float64
		p50, rate float64
	}{
		// Every op counts: a slow minority moves the rate, a slow majority the median.
		{"slow minority", []timedOp{op(10, 1, 100), op(30, 1, 100), op(11, 1, 100), op(12, 1, 100), op(50, 1, 100)}, 0.125, 12, 500 / 0.125},
		{"slow majority", []timedOp{op(2.0, 8, 80), op(0.7, 8, 80), op(2.2, 8, 80), op(2.1, 8, 80)}, 0.056, 2.05, 320 / 0.056},
		{"one op", []timedOp{op(5, 2, 7)}, 0.010, 5, 700},
		{"an op without units has no time per unit", []timedOp{op(5, 0, 0), op(4, 1, 1)}, 0.004, 4, 250},
		{"empty window", nil, 0, 0, 0},
	}
	for _, c := range cases {
		per, p50, rate := windowStats(c.ops, c.window)
		if !approx(p50, c.p50) || !approx(rate, c.rate) {
			t.Errorf("%s: p50 %v rate %v, want %v %v (per unit %v)", c.name, p50, rate, c.p50, c.rate, per)
		}
	}
}

func TestCheckAllocs(t *testing.T) {
	cases := []struct {
		workload     string
		mallocs, ops uint64
		quick        bool
		checks       int
		ok           bool
	}{
		{"train-mlp", 0, 50, false, 1, true},
		{"train-mlp", 3, 1, false, 1, true},    // a slow host's one-op window: the runtime's own few are not the step's
		{"train-mlp", 66, 50, false, 1, false}, // exact: the training step allocates nothing
		{"train-mlp", 17, 1, false, 1, false},
		{"sim-strong64", 3897 * 600, 600, false, 1, true},
		{"sim-strong64", (3897 + 512) * 600, 600, false, 1, false}, // one allocation more per rank and iteration
		{"serve-func", 887 + 1024, 1, false, 1, false},             // one more per request
		{"serve-func", 0, 0, false, 1, false},                      // nothing was counted
		{"train-mlp", 7, 1, true, 0, true},                         // a smoke run is not checked
	}
	for _, c := range cases {
		rep := newReport()
		rep.setAllocs(c.mallocs, c.ops)
		checkAllocs(rep, c.workload, c.quick)
		if len(rep.checks) != c.checks || rep.correct() != c.ok {
			t.Errorf("%s at %d mallocs in %d ops (quick %v): %d checks, correct %v; want %d, %v", c.workload, c.mallocs, c.ops, c.quick, len(rep.checks), rep.correct(), c.checks, c.ok)
		}
	}
}
