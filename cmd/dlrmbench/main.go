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
//	dlrmbench -exp fig7 -quick             # smaller batches, tables and iterations
//
// -quick shrinks only the experiments that run host kernels at length —
// fig5 (smaller GEMMs, fewer repeats), fig7/fig8 (1 iteration of 64
// samples on tables scaled by 1/64) and fig16 (100 iterations, 2048
// evaluation samples); every other experiment has one size. -iters sets an
// experiment's iteration count where it has one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	names := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		names[i] = e.Name
	}
	exp := flag.String("exp", "all",
		"experiment to run: all, list, or one of "+strings.Join(names, " "))
	iters := flag.Int("iters", 0, "override iteration count where applicable")
	quick := flag.Bool("quick", false, "shrink the host-kernel experiments (fig5, fig7, fig8, fig16) for a fast smoke run")
	flag.Parse()

	if *exp == "list" {
		fmt.Print(experiments.List())
		return
	}

	o := experiments.Opts{Iters: *iters, Quick: *quick}
	known := false
	for _, e := range experiments.Experiments {
		if *exp == "all" || *exp == e.Name {
			known = true
			fmt.Println(e.Run(o).String())
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from: %s all list\n",
			*exp, strings.Join(names, " "))
		os.Exit(2)
	}
}
