// Package experiments contains one harness per table and figure of the
// paper's evaluation (§V-§VII). Each Run* function regenerates the rows or
// series of its table/figure: single-socket experiments (Figs. 5, 7, 8, 16)
// execute the real kernels and report wall-clock numbers; multi-socket
// experiments (Figs. 2/6, 9-15) replay the paper-scale runs on the
// simulated cluster and report virtual times. `dlrmbench -exp list` prints
// the index.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
)

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

// newRand returns a seeded PRNG (hoisted so experiment files avoid
// repeating the import).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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
