package experiments

import (
	"fmt"

	"repro/internal/core"
)

// table1 reproduces Table I: the three DLRM model specifications.
func table1(Opts) *Table {
	t := &Table{
		Title:   "Table I: DLRM model specifications",
		Headers: []string{"Parameter", "Small", "Large", "MLPerf"},
	}
	get := func(f func(core.Config) string) []string {
		return []string{f(core.Small), f(core.Large), f(core.MLPerf)}
	}
	row := func(name string, f func(core.Config) string) {
		vals := get(f)
		t.AddRow(name, vals[0], vals[1], vals[2])
	}
	row("Minibatch (single socket)", func(c core.Config) string {
		if c.MB == 0 {
			return "-"
		}
		return fmt.Sprint(c.MB)
	})
	row("Global MB (strong scaling)", func(c core.Config) string { return fmt.Sprint(c.GlobalMB) })
	row("Local MB (weak scaling)", func(c core.Config) string { return fmt.Sprint(c.LocalMB) })
	row("Avg look-ups per table (P)", func(c core.Config) string { return fmt.Sprint(c.Lookups) })
	row("Number of tables (S)", func(c core.Config) string { return fmt.Sprint(c.Tables) })
	row("Embedding dimension (E)", func(c core.Config) string { return fmt.Sprint(c.EmbDim) })
	row("#rows per table (M)", func(c core.Config) string {
		mn, mx := c.Rows[0], c.Rows[0]
		for _, r := range c.Rows {
			if r < mn {
				mn = r
			}
			if r > mx {
				mx = r
			}
		}
		if mn == mx {
			return fmt.Sprintf("%.0e", float64(mx))
		}
		return fmt.Sprintf("up to %.0fM", float64(mx)/1e6)
	})
	row("Bottom MLP", func(c core.Config) string { return fmt.Sprint(c.BotSizes()) })
	row("Top MLP", func(c core.Config) string { return fmt.Sprint(c.TopSizes()) })
	return t
}

// table2 reproduces Table II: DLRM model characteristics for distributed
// runs, computed from the configs via Eqs. 1 and 2.
func table2(Opts) *Table {
	t := &Table{
		Title:   "Table II: DLRM model characteristics for distributed runs",
		Headers: []string{"Parameter", "Small", "Large", "MLPerf"},
	}
	cfgs := []core.Config{core.Small, core.Large, core.MLPerf}
	cells := func(f func(core.Config) string) []string {
		out := make([]string, len(cfgs))
		for i, c := range cfgs {
			out[i] = f(c)
		}
		return out
	}
	row := func(name string, f func(core.Config) string) {
		v := cells(f)
		t.AddRow(name, v[0], v[1], v[2])
	}
	row("Mem capacity for all tables (GB)", func(c core.Config) string {
		return fmt.Sprintf("%.0f", c.TableBytes()/1e9)
	})
	row("Minimum sockets required", func(c core.Config) string {
		return fmt.Sprint(c.MinSockets(128e9))
	})
	row("Maximum ranks to scale", func(c core.Config) string {
		return fmt.Sprint(c.MaxRanks())
	})
	row("Total allreduce size (MB)", func(c core.Config) string {
		return fmt.Sprintf("%.1f", c.AllreduceBytes()/1e6)
	})
	row("Strong-scaling alltoall volume (MiB)", func(c core.Config) string {
		return fmt.Sprintf("%.0f", c.AlltoallBytes(c.GlobalMB)/(1<<20))
	})
	t.AddNote("paper values: 2/384/98 GB; 1/4/1 sockets; 8/64/26 ranks; 9.5/1047/9.0 MB; 15.8/1024/208 MB")
	return t
}
