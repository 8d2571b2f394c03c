package serve

import (
	"testing"

	"repro/internal/cluster"
)

// BenchmarkServeFunctional times one functional replay at the serve-func
// shape (serveFuncConfig): Small scaled by 1/64 over 8 replicas, 1 024
// request-log requests at 0.9 × capacity, on a warm Workspaces and Pools.
// ns/req is the host time per served request.
func BenchmarkServeFunctional(b *testing.B) {
	c := serveFuncConfig(b, 1024)
	c.Workspaces, c.Pools = NewWorkspaces(), cluster.NewPools()
	defer c.Pools.Close()
	res, err := Run(c) // builds the replicas and the hot request profiles
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Served), "ns/req")
}
