package data

import "testing"

// BenchmarkFillRange times the generator at the three shapes the benchmark's
// workloads fill: a whole train-emb batch (the click log over 8 × 250 000
// rows, 16 dense features, 50 lookups a bag, 2048 samples), one serve-func
// replica batch (the request log over 8 × 15 625 rows, 512 dense features,
// 50 lookups, 32 requests) and one dist-func4 rank's share (the click log
// over the 26 Criteo tables scaled by 1/1024, 13 dense features, one lookup
// a bag — the per-draw path — 256 of a batch's 1024 samples). Each op fills
// the next batch index, as a loader does, so after the first few the
// samplers' bucket tables are warm.
func BenchmarkFillRange(b *testing.B) {
	rows := func(n, m int) []int {
		r := make([]int, n)
		for i := range r {
			r[i] = m
		}
		return r
	}
	for _, c := range []struct {
		name  string
		ds    Dataset
		n, hi int
	}{
		{"train-emb", NewClickLog(1, 16, rows(8, 250_000), 50), 2048, 2048},
		{"serve-func", NewRequestLog(1, 512, rows(8, 15_625), 50), 32, 32},
		{"dist-func4", NewClickLog(1, 13, ScaleRows(CriteoTBRows, 1.0/1024), 1), 1024, 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			mb := &MiniBatch{}
			for i := 0; i < b.N; i++ {
				c.ds.FillRange(i, c.n, 0, c.hi, mb)
			}
		})
	}
}
