package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method: position
// i·(n+1)/4, linear interpolation, clamped to the sample) — the rule the
// driver that gates BENCHMARK.json applies to its ten runs, so -agree
// reports the spread the driver will see.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after clamping, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile range as a share of the median — the
// run-to-run spread every host-time bound is compared against.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it, with the nearest-rank value there. A sample
// too small for even the median (n < 20) reports percentile 0 and its
// maximum, so the caller can state that no tail is supported.
func tailPercentile(xs []float64) (pct, value float64, n int) {
	s := sorted(xs)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	for _, p := range tailLadder {
		// Samples strictly beyond the nearest-rank p-th percentile; the
		// epsilon absorbs 99.9/100 not being exact in binary.
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if beyond >= 10 {
			return p, s[n-beyond-1], n
		}
	}
	return 0, s[n-1], n
}

// allocsPerOp is ⌊mallocs ÷ ops⌋, the integer division
// testing.AllocsPerRun reports.
func allocsPerOp(mallocs, ops uint64) uint64 {
	if ops == 0 {
		return 0
	}
	return mallocs / ops
}

// worsening returns by what share of base the value cur is worse, in the
// metric's own direction ("lower" or "higher" is better); negative when cur
// is better.
func worsening(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// verdict classifies one metric of an agreement run: two medians of the
// same commit, each with its own spread, against the metric's bound.
//
//	"unresolved"  the spread of either set is wider than the bound, so a
//	              regression of that size could not be told from noise;
//	"disagree"    the two medians differ, in either direction, by more than
//	              the bound: two sets of one commit that far apart have not
//	              agreed, whichever came out ahead;
//	"agree"       otherwise.
func verdict(better string, bound, med1, spread1, med2, spread2 float64) string {
	if spread1 > bound || spread2 > bound {
		return "unresolved"
	}
	if math.Abs(worsening(better, med1, med2)) > bound {
		return "disagree"
	}
	return "agree"
}
