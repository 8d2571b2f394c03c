// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics BENCHMARK.json gates, and a per-layer ledger measured
// from outside the program. See README.md.
//
// One run of one workload (what the driver and the suite modes invoke):
//
//	benchmark -workload train-mlp -seed 1 -seconds 10 -trace 0
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics with
// -trace 0, the per-layer ledger with -trace 1 (which also writes
// benchmark/out/trace-<workload>.json). It exits non-zero when an output
// check fails.
//
// Suite modes re-execute this binary, one child process at a time:
//
//	benchmark -suite            every workload, R repetitions round-robin + one traced run each
//	benchmark -agree            two full sets of runs; each metric's spread against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		o       runOpts
		trace   int
		suite   = flag.Bool("suite", false, "run every workload: -reps end-to-end repetitions interleaved round-robin, then one traced run each")
		agree   = flag.Bool("agree", false, "run two full sets of -reps runs per workload, each run on its own seed, and compare every end-to-end metric against its bound")
		repsN   = flag.Int("reps", 5, "repetitions per workload for -suite and per set for -agree")
		printMf = flag.Bool("manifest", false, "print BENCHMARK.json as the metric registry defines it, and exit")
		verbose = flag.Bool("v", false, "also print every metric by name and unit, the header and the checks, before the result line")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: train-mlp, train-emb, dist-func4, sim-strong64 or serve-func")
	flag.Int64Var(&o.seed, "seed", 1, "seed for datasets, model initialisation and the arrival stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer ledger; 0: end-to-end metrics, tracing off")
	flag.BoolVar(&o.quick, "quick", false, "tiny shapes and one op per workload: a smoke run, not a measurement")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for traces and full results, relative to the working directory (the repository root)")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case *printMf:
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
	case *suite || *agree:
		if err := runSuite(suiteOpts{agree: *agree, reps: *repsN, seed: o.seed, seconds: o.seconds,
			quick: o.quick, outDir: o.outDir}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	case o.workload != "":
		res, det, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if *verbose {
			printDetail(os.Stdout, det)
		}
		for _, c := range det.Checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "benchmark: check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
