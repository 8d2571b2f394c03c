package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// simStrong64 is the benchmark's sim-strong64 shape (the legacy
// Fig9Strong64R fixture): Large on 64 ranks, CCL alltoall over the pruned
// fat-tree, default bucketed+overlapped schedule, timing mode.
func simStrong64(iters int, pools *cluster.Pools) DistConfig {
	return DistConfig{
		Cfg: Large, Ranks: 64, GlobalN: Large.GlobalMB, Iters: iters,
		Variant: Variant{Strategy: Alltoall, Backend: cluster.CCLBackend},
		Topo:    fabric.NewPrunedFatTree(64, 12.5e9), Socket: perfmodel.CLX8280,
		Pools: pools, Workspaces: NewDistWorkspaces(),
	}
}

// BenchmarkSimStrong64Run times one timing-mode Run of 8 simulated
// iterations: pure simulator overhead, which must not depend on the host's
// core count (run with -cpu 1,2,8; ns/op and allocs/op should agree).
func BenchmarkSimStrong64Run(b *testing.B) {
	pools := cluster.NewPools()
	defer pools.Close()
	dc := simStrong64(8, pools)
	for i := 0; i < 3; i++ {
		mustRun(dc)
	}
	b.ReportAllocs()
	for b.Loop() {
		mustRun(dc)
	}
}
