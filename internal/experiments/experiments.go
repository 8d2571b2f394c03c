// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V-§VII), each registered by name in Experiments.
// A driver regenerates the rows or series of its table/figure:
// single-socket experiments (Figs. 5, 7, 8, 16) execute the real kernels
// and report wall-clock numbers (Fig. 16 reports AUC, deterministically);
// multi-socket experiments (Figs. 2/6, 9-15) replay the paper-scale runs on
// the simulated cluster and report virtual times. `dlrmbench -exp list`
// prints the index.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// Opts is everything a caller chooses about one experiment run.
type Opts struct {
	// Iters overrides the experiment's iteration count: timing iterations
	// of a simulated figure, training iterations of Figs. 7/8 and 16.
	// 0 keeps the experiment's default; experiments without an iteration
	// count ignore it.
	Iters int
	// Quick shrinks the three experiments that run host kernels at length
	// (fig5, fig7/fig8, fig16) to a smoke size. Every other experiment has
	// one size.
	Quick bool
}

// iters is o.Iters, or def when the caller left it unset.
func (o Opts) iters(def int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	return def
}

// defaultIters is the timing-iteration count of the simulated figures that
// do not set their own.
const defaultIters = 3

// Experiment is one entry of the registry.
type Experiment struct {
	Name string
	Desc string
	Run  func(Opts) *Table
}

// Experiments lists every experiment in presentation order. dlrmbench's
// -exp flag help, `-exp list` and its unknown-name error are generated from
// it, so registering an experiment here is the only step to expose it.
var Experiments = []Experiment{
	{"table1", "Table I: DLRM model specifications", table1},
	{"table2", "Table II: model characteristics for distributed runs (Eqs. 1-2)", table2},
	{"fig5", "single-socket MLP kernel GFLOPS: blocked GEMM vs FB/MKL styles", fig5},
	{"fig6", "overlapping MLP GEMMs with the SGD reduce-scatter/all-gather (Fig. 2/6)", fig6},
	{"fig7", "single-socket iteration time per embedding-update strategy", func(o Opts) *Table {
		fig7, _ := fig78(o)
		return fig7
	}},
	{"fig8", "single-socket time split across key ops", func(o Opts) *Table {
		_, fig8 := fig78(o)
		return fig8
	}},
	{"fig9", "strong scaling: speed-up/efficiency, all four comm variants", func(o Opts) *Table {
		return scalingFig(o, false)
	}},
	{"fig10", "strong-scaling compute/communication break-up, MPI vs CCL", func(o Opts) *Table {
		return breakdown(o, "Fig. 10: compute/communication break-up, strong scaling", false, false,
			"paper: MPI overlap inflates compute (progress-thread interference); CCL does not")
	}},
	{"fig11", "strong-scaling communication-time break-up (framework vs wait)", func(o Opts) *Table {
		return breakdown(o, "Fig. 11: communication time break-up, strong scaling", false, true,
			"paper: under MPI+overlap, allreduce completion surfaces at the alltoall wait (in-order queue)")
	}},
	{"fig12", "weak scaling: speed-up/efficiency, all four comm variants", func(o Opts) *Table {
		return scalingFig(o, true)
	}},
	{"fig13", "weak-scaling compute/communication break-up (incl. loader artifact)", func(o Opts) *Table {
		return breakdown(o, "Fig. 13: compute/communication break-up, weak scaling", true, false,
			"paper: MLPerf compute grows with rank count — the loader reads the full global minibatch per rank")
	}},
	{"fig14", "weak-scaling communication-time break-up", func(o Opts) *Table {
		return breakdown(o, "Fig. 14: communication time break-up, weak scaling", true, true)
	}},
	{"fig15", "8-socket shared-memory scaling on the UPI twisted hypercube", fig15},
	{"fig16", "mixed-precision training accuracy (ROC AUC), BF16/FP24 variants", fig16},
	{"loader", "data pipeline: global-read loader artifact vs sharded streaming loader", loaderFig},
	{"overlap", "overlap ablation: sync vs overlapped pipeline vs +hierarchical allreduce", overlapFig},
	{"buckets", "bucketed gradient allreduce (Fig. 2): flat vs per-layer buckets × sync vs overlapped", bucketFig},
	{"autotune", "self-tuning communication schedule: autotuned vs default at every Fig. 9/12 scale", autotuneFig},
	{"contention", "contention-aware fabric: schedules under shared-link charging, trunk/straggler sweeps, §VI-D1 from link mechanics", contentionFig},
	{"serving", "online serving: p50/p99 latency vs throughput, batching policy × offered load", servingFig},
	{"embstore", "tiered embedding store: Fig. 9 virtual ms/iter vs hot-cache budget × row skew", embstoreFig},
	{"churn", "elastic training under churn: recovery time and throughput vs checkpoint interval and failure rate", churnFig},
	{"ablation-allreduce", "allreduce algorithm sweep vs gradient volume", ablationAllreduce},
	{"ablation-commcores", "communication-core count S sweep (Large, CCL Alltoall)", ablationCommCores},
	{"ablation-capacity", "storage per weight: model + optimizer state", ablationCapacity},
	{"ablation-fused", "fused embedding backward+update vs two-step", ablationFused},
}

// List renders the registry as `dlrmbench -exp list` prints it: one line
// per experiment, its name and its description.
func List() string {
	var b strings.Builder
	for _, e := range Experiments {
		fmt.Fprintf(&b, "%-20s %s\n", e.Name, e.Desc)
	}
	return b.String()
}

// Table is a generic result table: a title, column headers, and rows of
// formatted cells. All experiment results render through it.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-form note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms formats seconds as milliseconds with sensible precision.
func ms(sec float64) string {
	v := sec * 1e3
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }

// delta formats x's signed change against base as a percentage.
func delta(x, base float64) string { return fmt.Sprintf("%+.1f%%", (x/base-1)*100) }

// timeIt returns the average seconds of fn over iters runs (after one
// warm-up).
func timeIt(iters int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(iters)
}

// mustRun executes a figure driver's distributed configuration through the
// validated entry point (core.DistConfig.Run). The drivers construct their
// configs statically, so a Validate error here is a programming bug:
// panic.
func mustRun(dc core.DistConfig) *core.DistResult {
	res, err := dc.Run()
	if err != nil {
		panic(err)
	}
	return res
}
