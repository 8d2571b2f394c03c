package data

import "testing"

// BenchmarkFillRange times the generator at the two shapes the benchmark's
// workloads fill: a whole train-emb batch (the click log over 8 × 250 000
// rows, 16 dense features, 50 lookups a bag, 2048 samples) and one serve-func
// replica batch (the request log over 8 × 15 625 rows, 512 dense features,
// 50 lookups, 32 requests). Each op fills the next batch index, as a loader
// does, so after the first few the samplers' bucket tables are warm.
func BenchmarkFillRange(b *testing.B) {
	rows := func(n, m int) []int {
		r := make([]int, n)
		for i := range r {
			r[i] = m
		}
		return r
	}
	for _, c := range []struct {
		name string
		ds   Dataset
		n    int
	}{
		{"train-emb", NewClickLog(1, 16, rows(8, 250_000), 50), 2048},
		{"serve-func", NewRequestLog(1, 512, rows(8, 15_625), 50), 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			mb := &MiniBatch{}
			for i := 0; i < b.N; i++ {
				c.ds.FillRange(i, c.n, 0, c.n, mb)
			}
		})
	}
}
