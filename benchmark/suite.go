package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suiteOpts configures the modes that run every workload several times.
type suiteOpts struct {
	agree   bool
	reps    int
	seed    int64
	seconds float64
	quick   bool
	outDir  string
}

// child runs one workload once in a fresh process — this binary again — so
// every repetition starts from a cold heap and its peak RSS is its own.
// Only one child runs at a time.
func child(o runOpts) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	tr := "0"
	if o.trace {
		tr = "1"
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", tr, "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v; run error: %v)", o.workload, err, runErr)
	}
	return res, nil // a failed check exits non-zero but still reports; Correct carries it
}

// series is one metric's values over the runs of one set.
type series map[string][]float64

func (s series) add(r result) {
	for name, v := range r.Metrics {
		s[name] = append(s[name], v.Value)
	}
}

func runSuite(so suiteOpts) error {
	if so.reps < 1 {
		return fmt.Errorf("-reps %d, want >= 1", so.reps)
	}
	if so.agree {
		return runAgree(so)
	}
	// Repetitions interleave round-robin across workloads, so slow drift of
	// the host lands on every workload alike.
	e2e := map[string]series{}
	incorrect := 0
	for r := 0; r < so.reps; r++ {
		for _, w := range allW {
			fmt.Fprintf(os.Stderr, "# repetition %d/%d  %s\n", r+1, so.reps, w)
			res, err := child(runOpts{workload: w, seed: so.seed, seconds: so.seconds, quick: so.quick, outDir: so.outDir})
			if err != nil {
				return err
			}
			if e2e[w] == nil {
				e2e[w] = series{}
			}
			e2e[w].add(res)
			if !res.Correct {
				incorrect++
			}
		}
	}
	traced := map[string]result{}
	for _, w := range allW {
		fmt.Fprintf(os.Stderr, "# traced run  %s\n", w)
		res, err := child(runOpts{workload: w, seed: so.seed, seconds: so.seconds, trace: true, quick: so.quick, outDir: so.outDir})
		if err != nil {
			return err
		}
		traced[w] = res
		if !res.Correct {
			incorrect++
		}
	}
	printSuite(os.Stdout, e2e, traced)
	if err := writeJSON(filepath.Join(so.outDir, "suite.json"), map[string]any{"end_to_end": e2e, "traced": traced}); err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed an output check", incorrect)
	}
	return nil
}

func printSuite(w io.Writer, e2e map[string]series, traced map[string]result) {
	for _, name := range allW {
		fmt.Fprintf(w, "\n== %s\n", name)
		fmt.Fprintf(w, "  %-32s %14s %14s %14s %4s  %s\n", "end-to-end (tracing off)", "median", "q1", "q3", "n", "unit")
		for _, m := range endToEnd {
			xs := e2e[name][m.name]
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %14.6g %4d  %s\n", m.name, q2, q1, q3, len(xs), m.unit)
		}
		fmt.Fprintf(w, "  %-32s %14s  %s\n", "per-layer (traced run)", "value", "unit")
		for _, m := range perLayer {
			if m.isHome(name) {
				fmt.Fprintf(w, "  %-32s %14.6g  %s\n", m.name, traced[name].Metrics[m.name].Value, m.unit)
			}
		}
		fmt.Fprintf(w, "  checks: traced run correct=%v (details in out/result-%s-*.json)\n", traced[name].Correct, name)
	}
}

// runAgree measures the same commit twice and says, per end-to-end metric
// and workload, whether the two sets agree within the metric's bound —
// the procedure every host-time bound in BENCHMARK.json was chosen by.
// Run i of either set uses seed+i (the driver, too, gives each of its runs
// another seed), and the sets alternate which goes first. One traced run
// per set checks that every virtual metric and count repeats exactly.
func runAgree(so suiteOpts) error {
	unresolved := 0
	for _, w := range allW {
		sets := [2]series{{}, {}}
		for i := 0; i < so.reps; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				fmt.Fprintf(os.Stderr, "# %s  set %c  run %d/%d\n", w, 'A'+s, i+1, so.reps)
				res, err := child(runOpts{workload: w, seed: so.seed + int64(i), seconds: so.seconds, quick: so.quick, outDir: so.outDir})
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: a run failed an output check", w)
				}
				sets[s].add(res)
			}
		}
		fmt.Printf("\n== %s  (%d runs per set, seeds %d..%d)\n", w, so.reps, so.seed, so.seed+int64(so.reps)-1)
		fmt.Printf("  %-22s %12s %8s %12s %8s %8s %6s  %s\n", "metric", "median A", "spread A", "median B", "spread B", "B worse", "bound", "verdict")
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			ma, mb, sa, sb := median(a), median(b), relSpread(a), relSpread(b)
			v := verdict(m.better, m.bound, ma, sa, mb, sb)
			if v != "agree" {
				unresolved++
			}
			fmt.Printf("  %-22s %12.6g %7.2f%% %12.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
				m.name, ma, sa*100, mb, sb*100, worsening(m.better, ma, mb)*100, m.bound*100, v)
		}

		var tr [2]result
		for s := range tr {
			fmt.Fprintf(os.Stderr, "# %s  set %c  traced run\n", w, 'A'+s)
			var err error
			if tr[s], err = child(runOpts{workload: w, seed: so.seed, seconds: so.seconds, trace: true, quick: so.quick, outDir: so.outDir}); err != nil {
				return err
			}
			if !tr[s].Correct {
				return fmt.Errorf("%s: a traced run failed an output check", w)
			}
		}
		var differ []string
		for _, m := range perLayer {
			if m.kind != timed && tr[0].Metrics[m.name].Value != tr[1].Metrics[m.name].Value {
				differ = append(differ, m.name)
			}
		}
		sort.Strings(differ)
		if len(differ) > 0 {
			unresolved += len(differ)
			fmt.Printf("  virtual metrics and counts that did NOT repeat exactly: %s\n", strings.Join(differ, ", "))
		} else {
			fmt.Printf("  every virtual metric and count repeated exactly across the two traced runs\n")
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric(s) unresolved or in disagreement", unresolved)
	}
	return nil
}

// printDetail prints one run in full: header, every metric by name and
// unit, notes and checks.
func printDetail(w io.Writer, d detail) {
	h := d.Host
	fmt.Fprintf(w, "workload %s  traced=%v  seed=%d\n", d.Workload, d.Traced, h.Seed)
	fmt.Fprintf(w, "host: %s %s, %q, nproc=%d gomaxprocs=%d llc=%d B\n", h.GoVersion, h.GoArch, h.CPUModel, h.NProc, h.GoMaxProcs, h.LLCBytes)
	if d.Traced {
		fmt.Fprintf(w, "roofs: %.3f GFLOP/s multiply-add, %.3f GB/s triad over 3 x %d B arrays (>= 4 x LLC: %v)\n",
			h.FMAGflops, h.TriadGBs, h.TriadArrayBytes, h.TriadBeyondLLC)
	}
	names := make([]string, 0, len(d.Result.Metrics))
	for n := range d.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := d.Result.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g  %s\n", n, m.Value, m.Unit)
	}
	if len(d.StepMs) > 0 {
		s := d.StepMs
		fmt.Fprintf(w, "host ms per op-unit over %d ops: q1 %.4g  p50 %.4g  q3 %.4g  p%g %.4g (n=%g)\n",
			d.Ops, s["q1"], s["p50"], s["q3"], s["tail_pct"], s["tail"], s["n"])
	}
	for k, v := range d.Notes {
		fmt.Fprintf(w, "note %s: %s\n", k, v)
	}
	for _, c := range d.Checks {
		fmt.Fprintf(w, "check %-40s ok=%-5v %s\n", c.Name, c.OK, c.Detail)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", d.Result.Attempted, d.Result.Failed, d.Result.Correct)
}
