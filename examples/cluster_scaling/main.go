// Cluster-scaling: runs the paper's MLPerf configuration on the simulated
// 64-socket OPA cluster and the 8-socket UPI node, sweeping rank counts and
// communication strategies, and prints the strong-scaling picture of
// Figs. 9 and 15 — who wins (native alltoall with a CCL-style backend), by
// how much, and where the twisted hypercube stops helping.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// loaderFor mirrors the paper's setup: only the MLPerf runs carry the
// §VI-D2 global-read loader artifact.
func loaderFor(cfg core.Config) core.LoaderMode {
	if cfg.Name == "MLPerf" {
		return core.LoaderGlobalMB
	}
	return core.LoaderNone
}

func run(cfg core.Config, topo fabric.Topology, sock perfmodel.Socket, ranks int, v core.Variant) *core.DistResult {
	gn := cfg.GlobalMB - cfg.GlobalMB%ranks
	res, err := core.DistConfig{
		Cfg: cfg, Ranks: ranks, GlobalN: gn, Iters: 3,
		Variant: v, Topo: topo, Socket: sock,
		Loader: loaderFor(cfg),
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	cfg := core.MLPerf

	fmt.Println("MLPerf strong scaling on the simulated OPA cluster (GN=16384):")
	fmt.Printf("%-6s", "ranks")
	for _, v := range core.Variants {
		fmt.Printf("  %-18s", v.Name())
	}
	fmt.Println()
	base := run(cfg, fabric.NewPrunedFatTree(1, 12.5e9), perfmodel.CLX8280, 1,
		core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend}).IterSeconds
	for _, r := range []int{2, 4, 8, 16, 26} {
		topo := fabric.NewPrunedFatTree(r, 12.5e9)
		fmt.Printf("%-6d", r)
		for _, v := range core.Variants {
			res := run(cfg, topo, perfmodel.CLX8280, r, v)
			fmt.Printf("  %6.1fms (%4.1fx)  ", res.IterSeconds*1e3, base/res.IterSeconds)
		}
		fmt.Println()
	}

	fmt.Println("\nSame model on the 8-socket shared-memory node (UPI twisted hypercube):")
	fmt.Printf("%-6s  %-10s  %-12s  %-12s\n", "ranks", "compute", "allreduce", "alltoall")
	hyper := fabric.NewTwistedHypercube(22e9)
	for _, r := range []int{1, 2, 4, 8} {
		res, err := core.DistConfig{
			Cfg: cfg, Ranks: r, GlobalN: cfg.GlobalMB - cfg.GlobalMB%r, Iters: 3,
			Variant:  core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend},
			Blocking: true,
			Topo:     hyper, Socket: perfmodel.SKX8180,
		}.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d  %7.1fms  %9.1fms  %9.1fms\n", r,
			res.ComputePerIter*1e3,
			res.WaitPerIter["allreduce"]*1e3,
			res.WaitPerIter["alltoall"]*1e3)
	}
	fmt.Println("\nNote how alltoall stops improving from 4 to 8 sockets: 2-hop pairs")
	fmt.Println("of the twisted hypercube contend for the same UPI links (Fig. 15).")
}
