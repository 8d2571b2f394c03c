// Sharded-loader: the data pipeline end to end — per-rank streaming
// loaders that shard at the source (each rank materializes only its N/R
// sample slice plus its owned tables' global-batch columns), verified to
// reassemble the global minibatch exactly; a single-socket training loop
// fed by the prefetching loader; and the modeled cluster-level consequence:
// the §VI-D2 global-read artifact grows with rank count under weak scaling
// while the sharded pipeline stays flat.
package main

import (
	"fmt"
	"log"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

func main() {
	rows := []int{4000, 900, 350, 2200}
	ds := data.NewClickLog(42, 8, rows, 3)
	const globalN, ranks = 96, 4

	// 1. Per-rank sharded loaders reassemble the global batch exactly.
	fmt.Printf("sharding %d samples across %d ranks (tables round-robin):\n", globalN, ranks)
	loaders := make([]*data.ShardedLoader, ranks)
	owned := make([][]int, ranks)
	for r := 0; r < ranks; r++ {
		for t := r; t < len(rows); t += ranks {
			owned[r] = append(owned[r], t)
		}
		loaders[r] = data.NewShardedLoader(data.LoaderConfig{
			DS: ds, GlobalN: globalN, Rank: r, Ranks: ranks, Owned: owned[r],
		})
		defer loaders[r].Close()
	}
	global := ds.Batch(0, globalN)
	for r := 0; r < ranks; r++ {
		rb := loaders[r].Next()
		lo := globalN * r / ranks
		for s := 0; s < rb.Local.N; s++ {
			if rb.Local.Labels[s] != global.Labels[lo+s] {
				log.Fatalf("rank %d sample %d: shard diverges from global batch", r, s)
			}
		}
		lookups := 0
		for _, b := range rb.Local.Sparse {
			lookups += b.NumLookups()
		}
		fmt.Printf("  rank %d: samples [%2d,%2d), %d shard lookups, owns tables %v over all %d samples\n",
			r, lo, globalN*(r+1)/ranks, lookups, owned[r], globalN)
	}
	fmt.Println("  every shard matches its global-batch slice exactly")

	// 2. Steady-state batch production is allocation-free: the loader
	// cycles two staging buffers while the consumer trains. Counted as the
	// difference between a long and a short loader session, so the fixed
	// cost of a session (the loader, its goroutine) cancels and only the
	// marginal cost of a batch remains.
	bufs := &data.LoaderBuffers{}
	session := func(batches int) func() {
		return func() {
			ld := data.NewShardedLoader(data.LoaderConfig{
				DS: ds, GlobalN: globalN, Ranks: ranks, Owned: owned[0], Buffers: bufs,
			})
			for range batches {
				ld.Next()
			}
			ld.Close()
		}
	}
	const short, long = 2, 52
	session(long)() // warm the staging buffers
	perBatch := (testing.AllocsPerRun(5, session(long)) - testing.AllocsPerRun(5, session(short))) / (long - short)
	fmt.Printf("\nsteady-state loader production: %g mallocs per batch\n", perBatch)

	// 3. Single-socket training through the prefetching loader.
	cfg := core.Config{
		Name: "LoaderDemo", MB: 64, GlobalMB: 64, LocalMB: 64,
		Lookups: 3, Tables: len(rows), EmbDim: 16, Rows: rows,
		DenseIn: 8, BotHidden: []int{32}, TopHidden: []int{64},
	}
	model := core.NewModel(cfg, 16, 1)
	tr := core.NewTrainer(model, par.Default, embedding.RaceFree, 0.5, core.FP32)
	fmt.Println("\ntraining through the streaming loader (prefetch overlaps Step):")
	err := tr.Run(core.RunOpts{
		Dataset: ds,
		Iters:   30,
		Each: func(it int, loss float64) {
			if (it+1)%10 == 0 {
				fmt.Printf("  iter %2d  loss %.4f\n", it+1, loss)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. The cluster-level story: weak-scaling MLPerf with the artifact vs
	// the sharded pipeline (virtual time on the simulated OPA cluster).
	fmt.Println("\nMLPerf weak scaling, modeled loader time per iteration:")
	fmt.Printf("  %-6s  %-14s  %-14s\n", "ranks", "global-read", "sharded")
	for _, r := range []int{2, 8, 26} {
		var ms [2]float64
		for i, mode := range []core.LoaderMode{core.LoaderGlobalMB, core.LoaderSharded} {
			res, err := core.DistConfig{
				Cfg: core.MLPerf, Ranks: r, GlobalN: core.MLPerf.LocalMB * r, Iters: 2,
				Variant: core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend},
				Topo:    fabric.NewPrunedFatTree(r, 12.5e9),
				Socket:  perfmodel.CLX8280,
				Loader:  mode,
			}.Run()
			if err != nil {
				log.Fatal(err)
			}
			// The default schedule overlaps the loader on the background
			// stream, so its charge is booked as busy time, not prep.
			ms[i] = res.BusyPerIter["loader"] * 1e3
		}
		fmt.Printf("  %-6d  %10.2f ms  %10.2f ms\n", r, ms[0], ms[1])
	}
	fmt.Println("the artifact's loader grows with rank count; the sharded pipeline stays flat")
}
