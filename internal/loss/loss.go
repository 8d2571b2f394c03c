// Package loss provides the binary cross-entropy training loss (fused with
// the sigmoid for numerical stability, the way DLRM's final layer is
// evaluated) and the ROC AUC metric the paper's Fig. 16 convergence plot
// reports.
package loss

import (
	"math"
	"sort"
)

// BCEWithLogits returns the mean binary cross-entropy of logits z against
// labels y ∈ {0,1}, and writes dL/dz = (σ(z) − y)/N into dz if dz is
// non-nil. The log1p formulation avoids overflow for large |z|.
func BCEWithLogits(z, y, dz []float32) float64 {
	if len(z) != len(y) || (dz != nil && len(dz) != len(z)) {
		panic("loss: length mismatch")
	}
	n := float64(len(z))
	var total float64
	for i := range z {
		zi := float64(z[i])
		yi := float64(y[i])
		// loss = max(z,0) - z*y + log(1+exp(-|z|))
		l := math.Max(zi, 0) - zi*yi + math.Log1p(math.Exp(-math.Abs(zi)))
		total += l
		if dz != nil {
			s := 1 / (1 + math.Exp(-zi))
			dz[i] = float32((s - yi) / n)
		}
	}
	return total / n
}

// Sigmoid applies the logistic function elementwise into out.
func Sigmoid(z, out []float32) {
	for i := range z {
		out[i] = float32(1 / (1 + math.Exp(-float64(z[i]))))
	}
}

// AUC computes the ROC area under curve of scores against binary labels
// using the rank statistic (equivalent to the Mann-Whitney U), with average
// ranks for ties. Returns NaN when any score is NaN (a NaN has no rank),
// else 0.5 when one class is absent.
func AUC(scores, labels []float32) float64 {
	if len(scores) != len(labels) {
		panic("loss: AUC length mismatch")
	}
	for _, s := range scores {
		if s != s {
			return math.NaN()
		}
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	var nPos, nNeg float64
	for _, l := range labels {
		if l > 0.5 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}

	var rankSumPos float64
	i := 0
	for i < n {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j), 1-based ranks
		avgRank := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if labels[idx[k]] > 0.5 {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	return (rankSumPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}
