// Command dlrmbench regenerates every table and figure of the paper's
// evaluation. Single-socket experiments (Figs. 5, 7, 8, 16) execute the
// real kernels on this host; multi-socket experiments (Figs. 2/6, 9-15)
// replay the paper-scale runs on the simulated UPI/OPA cluster.
//
// Usage:
//
//	dlrmbench -exp list                    # print every experiment with a description
//	dlrmbench -exp fig9                    # one experiment (see -exp list for names)
//	dlrmbench -exp fig16 -iters 800        # more training iterations
//	dlrmbench -exp fig7 -quick             # skip the slow Reference runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

// expOpts carries the command-line tuning every experiment may consult.
type expOpts struct {
	scale experiments.ScalingOpts
	iters int
	quick bool
}

// experiment is one registered entry of the -exp table. The -exp flag's
// help text, the `-exp list` output, and the unknown-name error are all
// generated from this table, so registering an experiment here is the only
// step to expose it.
type experiment struct {
	name string
	desc string
	run  func(o expOpts) fmt.Stringer
}

// experimentTable lists every experiment in presentation order.
func experimentTable() []experiment {
	return []experiment{
		{"table1", "Table I: DLRM model specifications", func(o expOpts) fmt.Stringer {
			return experiments.Table1()
		}},
		{"table2", "Table II: model characteristics for distributed runs (Eqs. 1-2)", func(o expOpts) fmt.Stringer {
			return experiments.Table2()
		}},
		{"fig5", "single-socket MLP kernel GFLOPS: blocked GEMM vs FB/MKL styles", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultFig5Opts()
			if o.quick {
				opts = experiments.Fig5Opts{N: 64, Sizes: []int{128, 256}, Repeats: 2}
			}
			return experiments.RunFig5(opts)
		}},
		{"fig6", "overlapping MLP GEMMs with the SGD reduce-scatter/all-gather (Fig. 2/6)", func(o expOpts) fmt.Stringer {
			return experiments.RunFig6(experiments.DefaultFig6Opts())
		}},
		{"fig7", "single-socket iteration time per embedding-update strategy", func(o expOpts) fmt.Stringer {
			return runFig78(o).Fig7
		}},
		{"fig8", "single-socket time split across key ops", func(o expOpts) fmt.Stringer {
			return runFig78(o).Fig8
		}},
		{"fig9", "strong scaling: speed-up/efficiency, all four comm variants", func(o expOpts) fmt.Stringer {
			return experiments.RunFig9(o.scale)
		}},
		{"fig10", "strong-scaling compute/communication break-up, MPI vs CCL", func(o expOpts) fmt.Stringer {
			return experiments.RunFig10(o.scale)
		}},
		{"fig11", "strong-scaling communication-time break-up (framework vs wait)", func(o expOpts) fmt.Stringer {
			return experiments.RunFig11(o.scale)
		}},
		{"fig12", "weak scaling: speed-up/efficiency, all four comm variants", func(o expOpts) fmt.Stringer {
			return experiments.RunFig12(o.scale)
		}},
		{"fig13", "weak-scaling compute/communication break-up (incl. loader artifact)", func(o expOpts) fmt.Stringer {
			return experiments.RunFig13(o.scale)
		}},
		{"fig14", "weak-scaling communication-time break-up", func(o expOpts) fmt.Stringer {
			return experiments.RunFig14(o.scale)
		}},
		{"fig15", "8-socket shared-memory scaling on the UPI twisted hypercube", func(o expOpts) fmt.Stringer {
			return experiments.RunFig15(o.scale)
		}},
		{"fig16", "mixed-precision training accuracy (ROC AUC), BF16/FP24 variants", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultFig16Opts()
			if o.quick {
				opts.Iters, opts.EvalN = 100, 2048
			}
			if o.iters > 0 {
				opts.Iters = o.iters
			}
			opts.Include8LSB = true
			return experiments.RunFig16(opts)
		}},
		{"loader", "data pipeline: global-read loader artifact vs sharded streaming loader", func(o expOpts) fmt.Stringer {
			return experiments.RunLoaderPipeline(o.scale)
		}},
		{"overlap", "overlap ablation: sync vs overlapped pipeline vs +hierarchical allreduce", func(o expOpts) fmt.Stringer {
			return experiments.RunOverlap(o.scale)
		}},
		{"buckets", "bucketed gradient allreduce (Fig. 2): flat vs per-layer buckets × sync vs overlapped", func(o expOpts) fmt.Stringer {
			return experiments.RunBucketFig(o.scale)
		}},
		{"autotune", "self-tuning communication schedule: autotuned vs default at every Fig. 9/12 scale", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultAutotuneFigOpts()
			if o.quick {
				opts.Iters, opts.MaxCandidates = 2, 16
			}
			if o.iters > 0 {
				opts.Iters = o.iters
			}
			return experiments.RunAutotune(opts)
		}},
		{"contention", "contention-aware fabric: schedules under shared-link charging, trunk/straggler sweeps, §VI-D1 from link mechanics", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultContentionFigOpts()
			if o.quick {
				opts.Iters, opts.MaxCandidates = 1, 16
			}
			if o.iters > 0 {
				opts.Iters = o.iters
			}
			return experiments.RunContentionFig(opts)
		}},
		{"serving", "online serving: p50/p99 latency vs throughput, batching policy × offered load", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultServingFigOpts()
			if o.quick {
				opts = experiments.QuickServingFigOpts()
			}
			return experiments.RunServing(opts)
		}},
		{"embstore", "tiered embedding store: Fig. 9 virtual ms/iter vs hot-cache budget × row skew", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultEmbStoreFigOpts()
			if o.quick {
				opts = experiments.QuickEmbStoreFigOpts()
			}
			if o.iters > 0 {
				opts.Iters = o.iters
			}
			return experiments.RunEmbStore(opts)
		}},
		{"churn", "elastic training under churn: recovery time and throughput vs checkpoint interval and failure rate", func(o expOpts) fmt.Stringer {
			opts := experiments.DefaultChurnFigOpts()
			if o.quick {
				opts = experiments.QuickChurnFigOpts()
			}
			if o.iters > 0 {
				opts.Iters = o.iters
			}
			return experiments.RunChurn(opts)
		}},
		{"ablation-allreduce", "allreduce algorithm sweep vs gradient volume", func(o expOpts) fmt.Stringer {
			return experiments.AblationAllreduce()
		}},
		{"ablation-commcores", "communication-core count S sweep (Large, CCL Alltoall)", func(o expOpts) fmt.Stringer {
			return experiments.AblationCommCores(16, o.scale.Iters)
		}},
		{"ablation-capacity", "storage per weight: model + optimizer state", func(o expOpts) fmt.Stringer {
			return experiments.AblationCapacity()
		}},
		{"ablation-fused", "fused embedding backward+update vs two-step", func(o expOpts) fmt.Stringer {
			return experiments.AblationFusedEmbedding(3)
		}},
	}
}

// runFig78 shares the Fig. 7/8 sweep between both entries.
func runFig78(o expOpts) *experiments.Fig78Result {
	opts := experiments.DefaultFig7Opts()
	if o.quick {
		opts = experiments.Fig7Opts{Iters: 1, MB: 64, RowScale: 1.0 / 64}
	}
	if o.iters > 0 {
		opts.Iters = o.iters
	}
	return experiments.RunFig78(opts)
}

func main() {
	table := experimentTable()
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	exp := flag.String("exp", "all",
		"experiment to run: all, list, or one of "+strings.Join(names, " "))
	iters := flag.Int("iters", 0, "override iteration count where applicable")
	quick := flag.Bool("quick", false, "reduce sizes for a fast smoke run")
	flag.Parse()

	if *exp == "list" {
		for _, e := range table {
			fmt.Printf("%-20s %s\n", e.name, e.desc)
		}
		return
	}

	o := expOpts{scale: experiments.DefaultScalingOpts(), iters: *iters, quick: *quick}
	if *iters > 0 {
		o.scale.Iters = *iters
	}

	known := false
	for _, e := range table {
		if *exp == "all" || *exp == e.name {
			known = true
			fmt.Println(e.run(o).String())
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from: %s all list\n",
			*exp, strings.Join(names, " "))
		os.Exit(2)
	}
}
