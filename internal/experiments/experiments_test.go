package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// run executes a registered experiment the way dlrmbench does, so every
// shape test covers its registry entry and runs the size the CLI runs.
func run(t *testing.T, name string, o Opts) *Table {
	t.Helper()
	for _, e := range Experiments {
		if e.Name == name {
			return e.Run(o)
		}
	}
	t.Fatalf("no experiment %q registered", name)
	return nil
}

// TestRegistry holds the -exp table's invariants: every name is unique and
// not one of dlrmbench's reserved words, every entry has a description and
// a driver, and `-exp list` prints one line per entry, in registry order —
// so every name once.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{"all": true, "list": true}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("experiment name %q repeated or reserved", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q lacks a description or a driver", e.Name)
		}
	}
	lines := strings.Split(strings.TrimSuffix(List(), "\n"), "\n")
	if len(lines) != len(Experiments) {
		t.Fatalf("-exp list prints %d lines, the registry holds %d entries", len(lines), len(Experiments))
	}
	for i, line := range lines {
		if name := strings.Fields(line)[0]; name != Experiments[i].Name {
			t.Errorf("-exp list line %d names %q, want %q", i, name, Experiments[i].Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 7)
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestTable1HasAllParameters(t *testing.T) {
	t.Parallel()
	tab := run(t, "table1", Opts{})
	if len(tab.Rows) != 9 {
		t.Fatalf("Table I rows = %d, want 9", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"2048", "16384", "MLPerf", "[13 512 256 128]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTable2MatchesPaperValues(t *testing.T) {
	t.Parallel()
	tab := run(t, "table2", Opts{})
	s := tab.String()
	// Spot values computed from the configs (close to the paper's).
	for _, want := range []string{"Mem capacity", "Maximum ranks", "26", "64", "1024"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table II missing %q:\n%s", want, s)
		}
	}
}

// find returns the first row of tab whose leading cells start with the
// given prefixes, column by column.
func find(t *testing.T, tab *Table, prefixes ...string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		match := true
		for i, p := range prefixes {
			match = match && strings.HasPrefix(row[i], p)
		}
		if match {
			return row
		}
	}
	t.Fatalf("no row %q in:\n%s", prefixes, tab)
	return nil
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestFig5ShapeBlockedBeatsMKL(t *testing.T) {
	tab := run(t, "fig5", Opts{Quick: true})
	if len(tab.Rows) != 6 {
		t.Fatalf("Fig5 rows = %d want 6", len(tab.Rows))
	}
	// At the largest size, the blocked kernel must not lose to the
	// MKL-style large GEMM on any pass (the paper's ~18% advantage).
	wins := 0
	for _, row := range tab.Rows[3:] {
		blocked := parseF(t, row[2])
		mkl := parseF(t, row[4])
		if blocked >= mkl*0.9 {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("blocked kernel lost to MKL-style on %d/3 large passes:\n%s", 3-wins, tab)
	}
}

func TestFig6CommunicationHidden(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig6", Opts{})
	if len(tab.Rows) != 2 {
		t.Fatal("Fig6 must have BWD and UPD rows")
	}
	// The paper's point: communication is fully hidden behind the GEMMs.
	bwdCompute := parseF(t, tab.Rows[0][1])
	bwdBusy := parseF(t, tab.Rows[0][2])
	bwdExposed := parseF(t, tab.Rows[0][3])
	if bwdBusy <= 0 {
		t.Fatal("no communication happened")
	}
	if bwdExposed > 0.05*bwdCompute {
		t.Fatalf("BWD communication not hidden: %v exposed of %v compute", bwdExposed, bwdCompute)
	}
	// Compute must dominate the communication (that is why hiding works).
	if bwdCompute < bwdBusy {
		t.Fatalf("BWD GEMMs (%v) should outweigh comm (%v)", bwdCompute, bwdBusy)
	}
}

// TestFig78ShapeReferenceSlowest holds the figures' shape in work counted
// from their own inputs, which scheduling cannot move (their wall-clock
// columns can, under a loaded host). Per iteration the Reference update
// writes a dense M×E gradient buffer for every table, an optimized strategy
// only the rows the batch touches. So, per config: Reference writes ≥ 3× as
// much (≥ 5× at Small), making its embedding phase and — the dense MLP work
// being the same batches through the same model — its step the slowest;
// and it writes more floats than the MLPs hold, while the touched rows stay
// below that: Reference is embedding-dominated (Fig. 8), the optimized step
// is not. It calls fig78, which both registry entries wrap, once at the
// -quick size rather than running the sweep twice.
func TestFig78ShapeReferenceSlowest(t *testing.T) {
	o := Opts{Quick: true}
	fig7, fig8 := fig78(o)
	if len(fig7.Rows) != 8 || len(fig8.Rows) != 8 {
		t.Fatalf("Fig7 / Fig8 rows = %d / %d want 8 each", len(fig7.Rows), len(fig8.Rows))
	}
	iters, mb, rowScale := fig78Size(o)
	for i, c := range fig78Cases(rowScale) {
		ratio := []float64{5, 3}[i] // Small, MLPerf
		var dense, touched float64  // floats the update writes per iteration
		for it := range iters {
			for ti, b := range c.ds.Batch(it, mb).Sparse {
				rows := map[int32]bool{}
				for _, ix := range b.Indices {
					rows[ix] = true
				}
				dense += float64(c.cfg.Rows[ti] * c.cfg.EmbDim)
				touched += float64(len(rows) * c.cfg.EmbDim)
			}
		}
		mlp := c.cfg.AllreduceBytes() / 4 * float64(iters) // MLP parameters
		if dense < ratio*touched || dense <= mlp || touched >= mlp {
			t.Errorf("%s: Reference writes %.3g floats, an optimized update %.3g (want ≥ %g×), the MLPs hold %.3g",
				c.name, dense, touched, ratio, mlp)
		}
	}
}

func TestFig9ShapeSpeedupsAndOrdering(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig9", Opts{})
	// Expect rows for all (config, ranks, variant) combos: 3+5+5=13 rank
	// points × 4 variants.
	if len(tab.Rows) != 13*4 {
		t.Fatalf("Fig9 rows = %d want 52", len(tab.Rows))
	}
	// For every rank point: Alltoall ≥ scatter variants, and CCL within 10%
	// of MPI (at low rank counts CCL's 4 reserved cores can cost more than
	// its communication savings; the win shows up at scale).
	for i := 0; i < len(tab.Rows); i += 4 {
		sl := parseF(t, tab.Rows[i][4])
		a2a := parseF(t, tab.Rows[i+2][4])
		ccl := parseF(t, tab.Rows[i+3][4])
		if ccl < a2a*0.9 {
			t.Fatalf("row %d: CCL Alltoall (%.2f) must be near MPI Alltoall (%.2f)\n%s", i, ccl, a2a, tab)
		}
		if a2a < sl*0.99 {
			t.Fatalf("row %d: Alltoall (%.2f) must beat ScatterList (%.2f)", i, a2a, sl)
		}
	}
	// At the largest rank count of the Large config, CCL must win outright.
	ccl := parseF(t, find(t, tab, "Large", "64R", "CCL Alltoall")[4])
	if mpi := parseF(t, find(t, tab, "Large", "64R", "MPI Alltoall")[4]); ccl < mpi {
		t.Fatalf("Large 64R: CCL (%.2f) must beat MPI (%.2f)", ccl, mpi)
	}
	// Small config: speedup grows with ranks for the best variant.
	s2 := parseF(t, tab.Rows[3][4])
	s8 := parseF(t, tab.Rows[11][4])
	if s8 <= s2 {
		t.Fatalf("Small: 8R speedup %.2f must exceed 2R %.2f", s8, s2)
	}
}

func TestFig12WeakBeatsStrongEfficiency(t *testing.T) {
	t.Parallel()
	weak, strong := run(t, "fig12", Opts{}), run(t, "fig9", Opts{})
	// Compare the Large config's best variant at the top rank count:
	// weak-scaling efficiency must exceed strong-scaling efficiency.
	weakEff := parseF(t, find(t, weak, "Large", "64R", "CCL Alltoall")[5])
	strongEff := parseF(t, find(t, strong, "Large", "64R", "CCL Alltoall")[5])
	if weakEff <= strongEff {
		t.Fatalf("weak efficiency %v%% must exceed strong %v%%", weakEff, strongEff)
	}
}

// TestFig10Shape holds Fig. 10's laws over every row: compute falls strictly
// as ranks are added; CCL exposes less communication than MPI and, with cores
// reserved for it, computes no faster; overlapping exposes no more than
// blocking.
func TestFig10Shape(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig10", Opts{})
	// (Large: 5 rank points, MLPerf: 5) × 2 modes × 2 backends.
	if len(tab.Rows) != 40 {
		t.Fatalf("%d rows, want 40:\n%s", len(tab.Rows), tab)
	}
	const colCompute, colExposed = 4, 5
	type key struct{ config, mode, backend, ranks string }
	byKey := map[key][]string{}
	for i, r := range tab.Rows {
		byKey[key{r[0], r[1], r[2], r[3]}] = r
		if i == 0 {
			continue
		}
		if prev := tab.Rows[i-1]; slices.Equal(prev[:3], r[:3]) && parseF(t, r[colCompute]) >= parseF(t, prev[colCompute]) {
			t.Errorf("compute must fall with ranks: %v after %v", r, prev)
		}
	}
	twin := func(k key) []string {
		r, ok := byKey[k]
		if !ok {
			t.Fatalf("no row %v:\n%s", k, tab)
		}
		return r
	}
	for k, ccl := range byKey {
		if k.backend != "CCL Backend" {
			continue
		}
		mpi := twin(key{k.config, k.mode, "MPI Backend", k.ranks})
		if parseF(t, ccl[colExposed]) >= parseF(t, mpi[colExposed]) {
			t.Errorf("CCL must expose less communication than MPI: %v vs %v", ccl, mpi)
		}
		if parseF(t, ccl[colCompute]) < parseF(t, mpi[colCompute]) {
			t.Errorf("CCL must not compute faster than MPI: %v vs %v", ccl, mpi)
		}
	}
	for k, over := range byKey {
		if k.mode != "overlapping" {
			continue
		}
		block := twin(key{k.config, "blocking", k.backend, k.ranks})
		if parseF(t, over[colExposed]) > parseF(t, block[colExposed]) {
			t.Errorf("overlapping must expose no more than blocking: %v vs %v", over, block)
		}
	}
}

func TestFig11MPIInOrderArtifact(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig11", Opts{})
	// Find Large overlapping rows at 16R for both backends and compare
	// alltoall waits: MPI (in-order) > CCL.
	mpiWait := parseF(t, find(t, tab, "Large", "overlapping", "MPI Backend", "16R")[6])
	cclWait := parseF(t, find(t, tab, "Large", "overlapping", "CCL Backend", "16R")[6])
	if mpiWait <= cclWait {
		t.Fatalf("MPI alltoall wait (%.2f) must exceed CCL (%.2f)\n%s", mpiWait, cclWait, tab)
	}
}

// weakSeries groups a weak-scaling breakdown table's rows into one series
// per (config, mode, backend), in rank order.
func weakSeries(t *testing.T, tab *Table, want int) map[[3]string][][]string {
	t.Helper()
	// (Large: 5 rank points, MLPerf: 5) × 2 modes × 2 backends.
	if len(tab.Rows) != want {
		t.Fatalf("%d rows, want %d:\n%s", len(tab.Rows), want, tab)
	}
	series := map[[3]string][][]string{}
	for _, r := range tab.Rows {
		k := [3]string{r[0], r[1], r[2]}
		series[k] = append(series[k], r)
	}
	return series
}

// TestFig13Shape: under weak scaling each rank keeps its local batch, so
// Large's compute is flat in the rank count while MLPerf's grows — the
// paper's loader artifact (every rank reads the full global minibatch).
// Exposed communication grows with ranks on Large, CCL exposes less than
// MPI, and overlapping exposes no more than blocking.
func TestFig13Shape(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig13", Opts{})
	const colCompute, colExposed = 4, 5
	series := weakSeries(t, tab, 40)
	for k, rows := range series {
		for i := 1; i < len(rows); i++ {
			c0, c1 := parseF(t, rows[i-1][colCompute]), parseF(t, rows[i][colCompute])
			switch k[0] {
			case "MLPerf":
				if c1 <= c0 {
					t.Errorf("MLPerf compute must grow with ranks (loader artifact): %v after %v", rows[i], rows[i-1])
				}
			case "Large":
				if c1 != c0 {
					t.Errorf("Large weak-scaling compute must not depend on ranks: %v after %v", rows[i], rows[i-1])
				}
				if parseF(t, rows[i][colExposed]) < parseF(t, rows[i-1][colExposed]) {
					t.Errorf("Large exposed communication must not fall with ranks: %v after %v", rows[i], rows[i-1])
				}
			}
		}
	}
	for k, rows := range series {
		if k[2] == "CCL Backend" {
			mpi := series[[3]string{k[0], k[1], "MPI Backend"}]
			for i, r := range rows {
				if parseF(t, r[colExposed]) >= parseF(t, mpi[i][colExposed]) {
					t.Errorf("CCL must expose less communication than MPI: %v vs %v", r, mpi[i])
				}
			}
		}
		if k[1] == "overlapping" {
			block := series[[3]string{k[0], "blocking", k[2]}]
			for i, r := range rows {
				if parseF(t, r[colExposed]) > parseF(t, block[i][colExposed]) {
					t.Errorf("overlapping must expose no more than blocking: %v vs %v", r, block[i])
				}
			}
		}
	}
}

// TestFig14Shape: Fig. 11's in-order-queue artifact under weak scaling —
// with MPI and overlap, Large's allreduce completion surfaces as alltoall
// wait (its own wait reads zero, the alltoall's exceeds CCL's at every rank
// count) — and Large's total wait never falls as ranks are added. The
// framework costs are the backend-independent part.
func TestFig14Shape(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig14", Opts{})
	const colA2AFw, colARFw, colA2AWait, colARWait = 4, 5, 6, 7
	series := weakSeries(t, tab, 40)
	mpi, ccl := series[[3]string{"Large", "overlapping", "MPI Backend"}], series[[3]string{"Large", "overlapping", "CCL Backend"}]
	for i := range mpi {
		if parseF(t, mpi[i][colARWait]) != 0 {
			t.Errorf("MPI + overlap: the allreduce wait must surface at the alltoall, not on its own: %v", mpi[i])
		}
		if parseF(t, mpi[i][colA2AWait]) <= parseF(t, ccl[i][colA2AWait]) {
			t.Errorf("MPI alltoall wait must exceed CCL's: %v vs %v", mpi[i], ccl[i])
		}
	}
	for k, rows := range series {
		if k[2] == "CCL Backend" {
			m := series[[3]string{k[0], k[1], "MPI Backend"}]
			for i, r := range rows {
				if r[colA2AFw] != m[i][colA2AFw] || r[colARFw] != m[i][colARFw] {
					t.Errorf("framework cost must not depend on the backend: %v vs %v", r, m[i])
				}
			}
		}
		if k[0] != "Large" {
			continue
		}
		for i := 1; i < len(rows); i++ {
			w0 := parseF(t, rows[i-1][colA2AWait]) + parseF(t, rows[i-1][colARWait])
			w1 := parseF(t, rows[i][colA2AWait]) + parseF(t, rows[i][colARWait])
			if w1 < w0 {
				t.Errorf("Large total wait must not fall with ranks: %v after %v", rows[i], rows[i-1])
			}
		}
	}
}

// TestOverlapShape: §IV-A's claim that the communication is almost
// completely hidden unless compute is too short. Per case, the overlapped
// schedules are never slower than sync and expose no more alltoall; the
// hierarchical allreduce is never slower than the flat one; and at Large
// 16R strong scaling, the case with the most compute per rank, the
// overlapped pipeline exposes no communication at all.
func TestOverlapShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "overlap", Opts{})
	if len(tab.Rows) != 24 {
		t.Fatalf("%d rows, want 24 (8 cases × 3 schedules):\n%s", len(tab.Rows), tab)
	}
	const colMs, colA2A, colAR = 4, 6, 7
	exposed := func(cell string) float64 {
		e, _, _ := strings.Cut(cell, "/")
		return parseF(t, e)
	}
	for i := 0; i < len(tab.Rows); i += 3 {
		sync, over, hier := tab.Rows[i], tab.Rows[i+1], tab.Rows[i+2]
		if sync[3] != "sync" || over[3] != "overlapped" || hier[3] != "overlapped+hier" {
			t.Fatalf("rows %d..%d are not sync / overlapped / overlapped+hier:\n%s", i, i+2, tab)
		}
		for _, r := range [][]string{over, hier} {
			if parseF(t, r[colMs]) > parseF(t, sync[colMs]) {
				t.Errorf("overlap must not be slower than sync: %v vs %v", r, sync)
			}
			if exposed(r[colA2A]) > exposed(sync[colA2A]) {
				t.Errorf("overlap must expose no more alltoall than sync: %v vs %v", r, sync)
			}
		}
		if parseF(t, hier[colMs]) > parseF(t, over[colMs]) {
			t.Errorf("hierarchical allreduce must not be slower: %v vs %v", hier, over)
		}
	}
	r := find(t, tab, "strong", "Large", "16R", "overlapped")
	if exposed(r[colA2A]) != 0 || exposed(r[colAR]) != 0 {
		t.Errorf("Large 16R strong: overlapped communication must be fully hidden: %v", r)
	}
}

func TestFig15TwistedHypercubeAlltoallSaturation(t *testing.T) {
	t.Parallel()
	tab := run(t, "fig15", Opts{})
	// MLPerf rows: alltoall must NOT improve much from 4R to 8R.
	a4 := parseF(t, find(t, tab, "MLPerf", "4R")[4])
	a8 := parseF(t, find(t, tab, "MLPerf", "8R")[4])
	if a4 == 0 || a8 == 0 {
		t.Fatalf("missing MLPerf alltoall rows:\n%s", tab)
	}
	if a4/a8 > 1.6 {
		t.Fatalf("alltoall improved %.2fx from 4R to 8R; twisted hypercube should limit to ≲1.5x", a4/a8)
	}
}

func TestFig16ShapeQuick(t *testing.T) {
	// Quick convergence check: BF16 Split-SGD must track FP32 closely and
	// FP24 must not surpass FP32 by the end. At 100 iterations the last
	// 5% checkpoint falls on the final iteration.
	tab := run(t, "fig16", Opts{Quick: true})
	if len(tab.Rows) != 20 {
		t.Fatalf("Fig16 rows = %d want 20 (5%% steps)", len(tab.Rows))
	}
	final := tab.Rows[19]
	fp32, bf16, fp24 := parseF(t, final[1]), parseF(t, final[2]), parseF(t, final[3])
	bf16Gap, fp24Gap := max(fp32-bf16, bf16-fp32), fp32-fp24
	if bf16Gap > 0.02 {
		t.Fatalf("BF16 SplitSGD gap vs FP32 = %.4f, want < 0.02", bf16Gap)
	}
	if fp24Gap < -0.02 {
		t.Fatalf("FP24 unexpectedly beats FP32 by %.4f", -fp24Gap)
	}
}

func TestAblationAllreduceShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "ablation-allreduce", Opts{})
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d want 9", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ring := parseF(t, row[2])
		flat := parseF(t, row[4])
		hier := parseF(t, row[5])
		// The untuned flat tree must never win.
		if row[7] == "flat tree" {
			t.Fatalf("flat tree won a regime: %v", row)
		}
		if flat < ring*0.99 && row[0] != "4 KB (latency-bound)" {
			t.Fatalf("flat tree beat ring on a bandwidth volume: %v", row)
		}
		// The two-level algorithm never loses to the flat ring at even rank
		// counts (same volume, fewer phases).
		if hier > ring*1.001 {
			t.Fatalf("hierarchical lost to ring: %v", row)
		}
	}
	// Latency-bound regime: recursive halving wins at 64 ranks.
	if last := find(t, tab, "4 KB (latency-bound)", "64R"); last[7] != "recursive halving" {
		t.Fatalf("recursive halving should win tiny messages at 64R, got %q", last[7])
	}
}

func TestAblationCommCoresTradeoff(t *testing.T) {
	t.Parallel()
	tab := run(t, "ablation-commcores", Opts{})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// More comm cores must monotonically raise compute time (fewer GEMM
	// cores)...
	c1 := parseF(t, tab.Rows[0][1])
	c12 := parseF(t, tab.Rows[4][1])
	if c12 <= c1 {
		t.Fatal("compute must grow as cores are taken away")
	}
	// ...while exposed communication must not increase.
	e1 := parseF(t, tab.Rows[0][2])
	e12 := parseF(t, tab.Rows[4][2])
	if e12 > e1*1.05 {
		t.Fatal("exposed comm should not grow with more comm cores")
	}
}

func TestAblationCapacityTable(t *testing.T) {
	t.Parallel()
	tab := run(t, "ablation-capacity", Opts{})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "32" || tab.Rows[1][3] != "32" || tab.Rows[2][3] != "48" {
		t.Fatalf("bit accounting wrong: %v", tab.Rows)
	}
}

func TestAblationFusedEmbeddingFaster(t *testing.T) {
	tab := run(t, "ablation-fused", Opts{})
	twoStep := parseF(t, tab.Rows[0][1])
	fused := parseF(t, tab.Rows[1][1])
	if fused > twoStep {
		t.Fatalf("fused (%.2fms) should not lose to two-step (%.2fms)", fused, twoStep)
	}
}

// TestEmbStoreFigShape smoke-tests the tiered-store figure: the in-RAM row,
// then 4 budgets ascending per skew; a tiered row never beats in-RAM, and a
// bigger budget never runs slower at the same skew.
func TestEmbStoreFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "embstore", Opts{})
	if len(tab.Rows) != 13 || tab.Rows[0][0] != "in-RAM" {
		t.Fatalf("want the in-RAM row and 3 skews × 4 budgets:\n%s", tab)
	}
	inRAM := parseF(t, tab.Rows[0][5])
	for i, row := range tab.Rows[1:] {
		v := parseF(t, row[5])
		if v < inRAM {
			t.Errorf("tiered row beats in-RAM %v: %v", inRAM, row)
		}
		if prev := tab.Rows[i]; i%4 > 0 && v > parseF(t, prev[5]) {
			t.Errorf("bigger budget ran slower: %v after %v", row, prev)
		}
	}
}

// TestBucketFigShape smoke-tests the bucketed-allreduce ablation: four
// schedules per (case, rank) row group, bucket counts only on bucketed
// rows, per-MLP allreduce labels only on bucketed rows, and — the figure's
// point — the bucketed overlapped schedule beating flat sync at Large 64R.
func TestBucketFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "buckets", Opts{})
	if len(tab.Rows)%4 != 0 || len(tab.Rows) == 0 {
		t.Fatalf("expected 4 schedule rows per case, got %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		schedule, buckets := row[3], row[4]
		switch schedule {
		case "flat sync", "flat overlapped":
			if buckets != "-" {
				t.Fatalf("flat row carries bucket count %q", buckets)
			}
			if row[8] != "-" || row[9] != "-" {
				t.Fatalf("flat row carries ar-top/ar-bot cells: %v", row)
			}
		case "bucketed sync", "bucketed overlapped":
			if buckets == "-" {
				t.Fatalf("bucketed row missing bucket count: %v", row)
			}
			if row[7] != "-" {
				t.Fatalf("bucketed row carries the flat allreduce cell: %v", row)
			}
			if row[8] == "-" || row[9] == "-" {
				t.Fatalf("bucketed row missing ar-top/ar-bot cells: %v", row)
			}
		default:
			t.Fatalf("unknown schedule %q", schedule)
		}
	}
	flatSync := parseF(t, find(t, tab, "strong (Fig9)", "Large", "64R", "flat sync")[5])
	bucketedOvl := parseF(t, find(t, tab, "strong (Fig9)", "Large", "64R", "bucketed overlapped")[5])
	if bucketedOvl >= flatSync*0.85 {
		t.Fatalf("bucketed overlapped (%.0f ms) should beat flat sync (%.0f ms) by >15%% at Large 64R",
			bucketedOvl, flatSync)
	}
}

// TestAutotuneFigShape smoke-tests the self-tuning schedule figure: one row
// per Fig. 9/12 scale, tuned never worse than the shipped default on every
// row (the incumbent is probed and kept on a tie), and — the figure's point —
// strictly better on at least one scale.
func TestAutotuneFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "autotune", Opts{})
	if len(tab.Rows) != 8 {
		t.Fatalf("expected 8 scale rows, got %d", len(tab.Rows))
	}
	better := 0
	for _, row := range tab.Rows {
		def, tuned := parseF(t, row[3]), parseF(t, row[4])
		if tuned > def*1.0001 {
			t.Errorf("tuned (%.1f ms) worse than default (%.1f ms): %v", tuned, def, row)
		}
		if tuned < def*0.999 {
			better++
		}
		if row[6] == "" {
			t.Errorf("missing schedule cell: %v", row)
		}
	}
	if better == 0 {
		t.Error("tuner strictly improved no scale; expected at least one (hierarchical beats ring at 64R)")
	}
}

func TestContentionFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "contention", Opts{})
	// 8 schedule rows + 8 trunk rows + 3 straggler + 4 autotune + 4 §VI-D1.
	if len(tab.Rows) != 27 {
		t.Fatalf("expected 27 rows, got %d", len(tab.Rows))
	}
	rows := func(section string) (out [][]string) {
		for _, r := range tab.Rows {
			if r[0] == section {
				out = append(out, r)
			}
		}
		return out
	}
	// Schedule section: contention never speeds a schedule up, the flat
	// synchronous schedule is priced identically, and at both scales the
	// bucketed+overlapped schedule still beats flat-sync under contention.
	sched := rows("schedule")
	for i := 0; i < len(sched); i += 2 {
		off, on := parseF(t, sched[i][5]), parseF(t, sched[i+1][5])
		if on < off {
			t.Errorf("contention sped up %v: off %v on %v", sched[i][3], off, on)
		}
		if sched[i][3] == "flat-sync" && on != off {
			t.Errorf("flat-sync must be contention-free: off %v on %v", off, on)
		}
	}
	for i := 0; i < len(sched); i += 4 {
		flatOn, bucketOn := parseF(t, sched[i+1][5]), parseF(t, sched[i+3][5])
		if bucketOn >= flatOn {
			t.Errorf("%s: overlap win must survive contention (bucketed %v vs flat-sync %v)",
				sched[i][1], bucketOn, flatOn)
		}
	}
	// Trunk section: more oversubscription never gets cheaper.
	trunk := rows("trunk")
	for i := 2; i < len(trunk); i += 2 {
		if parseF(t, trunk[i][5]) < parseF(t, trunk[i-2][5]) {
			t.Errorf("fewer uplinks must not be faster: %v vs %v", trunk[i], trunk[i-2])
		}
	}
	// Straggler section: a derated trunk only slows things down.
	strag := rows("straggler")
	for i := 1; i < len(strag); i++ {
		if parseF(t, strag[i][5]) < parseF(t, strag[0][5]) {
			t.Errorf("derated trunk must not be faster: %v", strag[i])
		}
	}
	// Autotune section: tuned never worse than default under contention.
	auto := rows("autotune")
	for i := 0; i < len(auto); i += 2 {
		if parseF(t, auto[i+1][5]) > parseF(t, auto[i][5])*1.0001 {
			t.Errorf("tuned-under-contention worse than default: %v vs %v", auto[i+1], auto[i])
		}
	}
	// §VI-D1 section: both interference mechanisms inflate their baseline.
	vid := rows("§VI-D1")
	if parseF(t, vid[1][5]) <= parseF(t, vid[0][5]) {
		t.Errorf("flat interference factor must slow the MPI run: %v vs %v", vid[1], vid[0])
	}
	if parseF(t, vid[3][5]) <= parseF(t, vid[2][5]) {
		t.Errorf("link-level contention must slow the overlapped CCL run: %v vs %v", vid[3], vid[2])
	}
}

func TestServingFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "serving", Opts{})
	// 2 scales × (B32 unbounded + B32 SLO + B128 SLO) × 3 loads.
	if len(tab.Rows) != 18 {
		t.Fatalf("%d rows, want 18:\n%s", len(tab.Rows), tab)
	}
	if len(tab.Headers) != 11 {
		t.Fatalf("%d headers, want 11", len(tab.Headers))
	}
	const (
		colShed, colP99, colQPS = 6, 9, 10
	)
	// MLPerf at 3.0x overload: the unbounded B32 policy (row 2) blows past
	// the SLO the bounded policy (row 5) holds, which sheds to stay there.
	if parseF(t, tab.Rows[5][colShed]) == 0 {
		t.Errorf("SLO policy at 3x overload shed nothing: %v", tab.Rows[5])
	}
	if parseF(t, tab.Rows[5][colP99]) >= parseF(t, tab.Rows[2][colP99]) {
		t.Errorf("SLO policy p99 %v not below unbounded %v", tab.Rows[5], tab.Rows[2])
	}
	// Larger max-batch buys strictly more saturated throughput (B128 row 8
	// vs B32 row 2 at 3.0x), at both scales (rows 17 vs 11).
	for _, pair := range [][2]int{{8, 2}, {17, 11}} {
		if parseF(t, tab.Rows[pair[0]][colQPS]) <= parseF(t, tab.Rows[pair[1]][colQPS]) {
			t.Errorf("B128 throughput %v not above B32 %v", tab.Rows[pair[0]], tab.Rows[pair[1]])
		}
	}
	// Deterministic: a rerun renders bit-identically.
	if again := run(t, "serving", Opts{}); again.String() != tab.String() {
		t.Error("serving figure is not deterministic across reruns")
	}
}

func TestChurnFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "churn", Opts{})
	// Per scale: checkpoint-off baseline + fault-free per interval (3) +
	// 1-failure per interval (3) + churn per interval × rate (6).
	if len(tab.Rows) != 26 {
		t.Fatalf("%d rows, want 26:\n%s", len(tab.Rows), tab)
	}
	if len(tab.Headers) != 9 {
		t.Fatalf("%d headers, want 9", len(tab.Headers))
	}
	const (
		colCase, colCkpt, colFails, colFinalR, colTTR, colOver = 1, 2, 3, 4, 5, 8
	)
	for _, row := range tab.Rows {
		switch {
		case row[colCase] == "fault-free" && row[colCkpt] == "off":
			// The checkpoint-off baseline defines 0% overhead and recovers
			// nothing.
			if row[colOver] != "0%" || row[colFails] != "0" {
				t.Errorf("bad baseline row: %v", row)
			}
		case row[colCase] == "fault-free":
			// The checkpointing tax alone must not beat the checkpoint-off
			// baseline.
			if strings.HasPrefix(row[colOver], "-") {
				t.Errorf("fault-free checkpointing beat the no-checkpoint baseline: %v", row)
			}
		case row[colCase] == "1 failure":
			// The single mid-run failure loses exactly one of 64 ranks and
			// pays a positive time-to-recover.
			if row[colFails] != "1" || row[colFinalR] != "63" {
				t.Errorf("bad single-failure row: %v", row)
			}
			if ttr, err := strconv.ParseFloat(row[colTTR], 64); err != nil || ttr <= 0 {
				t.Errorf("single-failure TTR not positive: %v", row)
			}
		case strings.HasPrefix(row[colCase], "churn"):
			// The churn schedule never drops below the floor of 32 ranks.
			if r, err := strconv.Atoi(row[colFinalR]); err != nil || r < 32 || r > 64 {
				t.Errorf("churn final ranks out of [32,64]: %v", row)
			}
		default:
			t.Errorf("unknown case %q", row[colCase])
		}
	}
	// Deterministic: a rerun renders bit-identically.
	if again := run(t, "churn", Opts{}); again.String() != tab.String() {
		t.Error("churn figure is not deterministic across reruns")
	}
}

// TestLoaderFigShape holds the loader figure to the §VI-D2 claim: under the
// global-read artifact every rank reads the whole global minibatch, so its
// loader time rises strictly with the rank count; the sharded loader reads
// its own slice and owned columns, so its time is flat across ranks, never
// above the artifact's, and equal to it at 2R, where both read two shares.
func TestLoaderFigShape(t *testing.T) {
	t.Parallel()
	tab := run(t, "loader", Opts{})
	// 5 rank counts × (global-read, sharded).
	if len(tab.Rows) != 10 {
		t.Fatalf("%d rows, want 10:\n%s", len(tab.Rows), tab)
	}
	const colRanks, colMode, colLoader = 1, 2, 4
	for i := 0; i < len(tab.Rows); i += 2 {
		global, sharded := tab.Rows[i], tab.Rows[i+1]
		if global[colMode] != "global-read" || sharded[colMode] != "sharded" || global[colRanks] != sharded[colRanks] {
			t.Fatalf("rows %d, %d are not a global-read / sharded pair at one rank count: %v, %v", i, i+1, global, sharded)
		}
		g, s := parseF(t, global[colLoader]), parseF(t, sharded[colLoader])
		if s > g {
			t.Errorf("%s: sharded loader %v above global-read %v", global[colRanks], s, g)
		}
		if i == 0 && s != g {
			t.Errorf("2R: sharded loader %v differs from global-read %v", s, g)
		}
		if i > 0 {
			if prev := parseF(t, tab.Rows[i-2][colLoader]); g <= prev {
				t.Errorf("%s: global-read loader %v not above %v at the previous rank count", global[colRanks], g, prev)
			}
			if first := parseF(t, tab.Rows[1][colLoader]); s != first {
				t.Errorf("%s: sharded loader %v, %v at 2R; want it flat", sharded[colRanks], s, first)
			}
		}
	}
}
