package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

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
	tab := Table1()
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
	tab := Table2()
	s := tab.String()
	// Spot values computed from the configs (close to the paper's).
	for _, want := range []string{"Mem capacity", "Maximum ranks", "26", "64", "1024"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table II missing %q:\n%s", want, s)
		}
	}
}

func cell(tab *Table, row, col int) string { return tab.Rows[row][col] }

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
	tab := RunFig5(Fig5Opts{N: 64, Sizes: []int{128, 256}, Repeats: 2})
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
	tab := RunFig6(DefaultFig6Opts())
	if len(tab.Rows) != 2 {
		t.Fatal("Fig6 must have BWD and UPD rows")
	}
	// The paper's point: communication is fully hidden behind the GEMMs.
	bwdCompute := parseF(t, cell(tab, 0, 1))
	bwdBusy := parseF(t, cell(tab, 0, 2))
	bwdExposed := parseF(t, cell(tab, 0, 3))
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
// is not.
func TestFig78ShapeReferenceSlowest(t *testing.T) {
	o := Fig7Opts{Iters: 1, MB: 64, RowScale: 1.0 / 32}
	tab := RunFig78(o)
	if len(tab.Fig7.Rows) != 8 || len(tab.Fig8.Rows) != 8 {
		t.Fatalf("Fig7 / Fig8 rows = %d / %d want 8 each", len(tab.Fig7.Rows), len(tab.Fig8.Rows))
	}
	// RunFig78's inputs.
	small, mlperf := core.Small.Scaled(o.RowScale), core.MLPerf.Scaled(o.RowScale/8)
	for _, c := range []struct {
		cfg   core.Config
		ds    data.Dataset
		ratio float64
	}{
		{small, &data.Random{Seed: 1, D: small.DenseIn, Tables: small.Tables, Rows: small.Rows[0], Lookups: small.Lookups}, 5},
		{mlperf, data.NewClickLog(2, mlperf.DenseIn, mlperf.Rows, mlperf.Lookups), 3},
	} {
		var dense, touched float64 // floats the update writes per iteration
		for it := range o.Iters {
			for ti, b := range c.ds.Batch(it, o.MB).Sparse {
				rows := map[int32]bool{}
				for _, ix := range b.Indices {
					rows[ix] = true
				}
				dense += float64(c.cfg.Rows[ti] * c.cfg.EmbDim)
				touched += float64(len(rows) * c.cfg.EmbDim)
			}
		}
		mlp := c.cfg.AllreduceBytes() / 4 * float64(o.Iters) // MLP parameters
		if dense < c.ratio*touched || dense <= mlp || touched >= mlp {
			t.Errorf("%s: Reference writes %.3g floats, an optimized update %.3g (want ≥ %g×), the MLPs hold %.3g",
				c.cfg.Name, dense, touched, c.ratio, mlp)
		}
	}
}

func TestFig9ShapeSpeedupsAndOrdering(t *testing.T) {
	tab := RunFig9(ScalingOpts{Iters: 2})
	// Expect rows for all (config, ranks, variant) combos: 3+5+5=13 rank
	// points × 4 variants.
	if len(tab.Rows) != 13*4 {
		t.Fatalf("Fig9 rows = %d want 52", len(tab.Rows))
	}
	// For every rank point: Alltoall ≥ scatter variants, and CCL within 10%
	// of MPI (at low rank counts CCL's 4 reserved cores can cost more than
	// its communication savings; the win shows up at scale).
	for i := 0; i < len(tab.Rows); i += 4 {
		sl := parseF(t, cell(tab, i, 4))
		a2a := parseF(t, cell(tab, i+2, 4))
		ccl := parseF(t, cell(tab, i+3, 4))
		if ccl < a2a*0.9 {
			t.Fatalf("row %d: CCL Alltoall (%.2f) must be near MPI Alltoall (%.2f)\n%s", i, ccl, a2a, tab)
		}
		if a2a < sl*0.99 {
			t.Fatalf("row %d: Alltoall (%.2f) must beat ScatterList (%.2f)", i, a2a, sl)
		}
	}
	// At the largest rank count of the Large config, CCL must win outright.
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "Large") && row[1] == "64R" {
			if row[2] == "CCL Alltoall" {
				ccl := parseF(t, row[4])
				for _, r2 := range tab.Rows {
					if strings.HasPrefix(r2[0], "Large") && r2[1] == "64R" && r2[2] == "MPI Alltoall" {
						if ccl < parseF(t, r2[4]) {
							t.Fatalf("Large 64R: CCL (%.2f) must beat MPI (%.2f)", ccl, parseF(t, r2[4]))
						}
					}
				}
			}
		}
	}
	// Small config: speedup grows with ranks for the best variant.
	s2 := parseF(t, cell(tab, 3, 4))
	s8 := parseF(t, cell(tab, 11, 4))
	if s8 <= s2 {
		t.Fatalf("Small: 8R speedup %.2f must exceed 2R %.2f", s8, s2)
	}
}

func TestFig12WeakBeatsStrongEfficiency(t *testing.T) {
	weak := RunFig12(ScalingOpts{Iters: 2})
	strong := RunFig9(ScalingOpts{Iters: 2})
	// Compare the Large config's best variant at the top rank count:
	// weak-scaling efficiency must exceed strong-scaling efficiency.
	var weakEff, strongEff float64
	for _, tab := range []*Table{weak, strong} {
		for _, row := range tab.Rows {
			if strings.HasPrefix(row[0], "Large") && row[1] == "64R" && row[2] == "CCL Alltoall" {
				v := parseF(t, row[5])
				if tab == weak {
					weakEff = v
				} else {
					strongEff = v
				}
			}
		}
	}
	if weakEff == 0 || strongEff == 0 {
		t.Fatal("missing Large 64R rows")
	}
	if weakEff <= strongEff {
		t.Fatalf("weak efficiency %v%% must exceed strong %v%%", weakEff, strongEff)
	}
}

func TestFig11MPIInOrderArtifact(t *testing.T) {
	tab := RunFig11(ScalingOpts{Iters: 2})
	// Find Large overlapping rows at 16R for both backends and compare
	// alltoall waits: MPI (in-order) > CCL.
	var mpiWait, cclWait float64
	for _, row := range tab.Rows {
		if row[0] == "Large" && row[1] == "overlapping" && row[3] == "16R" {
			if row[2] == "MPI Backend" {
				mpiWait = parseF(t, row[4+2])
			} else {
				cclWait = parseF(t, row[4+2])
			}
		}
	}
	if mpiWait <= cclWait {
		t.Fatalf("MPI alltoall wait (%.2f) must exceed CCL (%.2f)\n%s", mpiWait, cclWait, tab)
	}
}

func TestFig15TwistedHypercubeAlltoallSaturation(t *testing.T) {
	tab := RunFig15(ScalingOpts{Iters: 2})
	// MLPerf rows: alltoall must NOT improve much from 4R to 8R.
	var a4, a8 float64
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "MLPerf") {
			if row[1] == "4R" {
				a4 = parseF(t, row[4])
			}
			if row[1] == "8R" {
				a8 = parseF(t, row[4])
			}
		}
	}
	if a4 == 0 || a8 == 0 {
		t.Fatalf("missing MLPerf alltoall rows:\n%s", tab)
	}
	if a4/a8 > 1.6 {
		t.Fatalf("alltoall improved %.2fx from 4R to 8R; twisted hypercube should limit to ≲1.5x", a4/a8)
	}
}

func TestFig16ShapeQuick(t *testing.T) {
	// Quick convergence check: BF16 Split-SGD must track FP32 closely and
	// FP24 must not surpass FP32 by the end.
	o := Fig16Opts{Iters: 120, MB: 128, EvalN: 4096, LR: 0.5, RowScale: 1.0 / 8192}
	bf16Gap, fp24Gap := Fig16FinalGap(o)
	if bf16Gap > 0.02 {
		t.Fatalf("BF16 SplitSGD gap vs FP32 = %.4f, want < 0.02", bf16Gap)
	}
	if fp24Gap < -0.02 {
		t.Fatalf("FP24 unexpectedly beats FP32 by %.4f", -fp24Gap)
	}
	tab := RunFig16(Fig16Opts{Iters: 60, MB: 128, EvalN: 2048, LR: 0.5, RowScale: 1.0 / 8192})
	if len(tab.Rows) != 20 {
		t.Fatalf("Fig16 rows = %d want 20 (5%% steps)", len(tab.Rows))
	}
}

func TestAblationAllreduceShape(t *testing.T) {
	tab := AblationAllreduce()
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
	last := tab.Rows[2]
	if last[0] != "4 KB (latency-bound)" || last[1] != "64R" {
		t.Fatalf("unexpected row order: %v", last)
	}
	if last[7] != "recursive halving" {
		t.Fatalf("recursive halving should win tiny messages at 64R, got %q", last[7])
	}
}

func TestAblationCommCoresTradeoff(t *testing.T) {
	tab := AblationCommCores(16, 2)
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
	tab := AblationCapacity()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "32" || tab.Rows[1][3] != "32" || tab.Rows[2][3] != "48" {
		t.Fatalf("bit accounting wrong: %v", tab.Rows)
	}
}

func TestAblationFusedEmbeddingFaster(t *testing.T) {
	tab := AblationFusedEmbedding(2)
	twoStep := parseF(t, tab.Rows[0][1])
	fused := parseF(t, tab.Rows[1][1])
	if fused > twoStep {
		t.Fatalf("fused (%.2fms) should not lose to two-step (%.2fms)", fused, twoStep)
	}
}

// TestBucketFigShape smoke-tests the bucketed-allreduce ablation: four
// schedules per (case, rank) row group, bucket counts only on bucketed
// rows, per-MLP allreduce labels only on bucketed rows, and — the figure's
// point — the bucketed overlapped schedule beating flat sync at Large 64R.
func TestBucketFigShape(t *testing.T) {
	tab := RunBucketFig(ScalingOpts{Iters: 2})
	if len(tab.Rows)%4 != 0 || len(tab.Rows) == 0 {
		t.Fatalf("expected 4 schedule rows per case, got %d rows", len(tab.Rows))
	}
	var flatSync, bucketedOvl float64
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
		if row[0] == "strong (Fig9)" && row[2] == "64R" {
			v, err := strconv.ParseFloat(row[5], 64)
			if err != nil {
				t.Fatalf("bad ms cell %q: %v", row[5], err)
			}
			switch schedule {
			case "flat sync":
				flatSync = v
			case "bucketed overlapped":
				bucketedOvl = v
			}
		}
	}
	if flatSync == 0 || bucketedOvl == 0 {
		t.Fatal("missing Large strong 64R rows")
	}
	if bucketedOvl >= flatSync*0.85 {
		t.Fatalf("bucketed overlapped (%.0f ms) should beat flat sync (%.0f ms) by >15%% at Large 64R",
			bucketedOvl, flatSync)
	}
}

// TestAutotuneFigShape smoke-tests the self-tuning schedule figure: one row
// per Fig. 9/12 scale, tuned never worse than the shipped default on every
// row (the tuner's head-to-head contract holds even under a sampled pool),
// and — the figure's point — strictly better on at least one scale.
func TestAutotuneFigShape(t *testing.T) {
	tab := RunAutotune(AutotuneFigOpts{Iters: 2, MaxCandidates: 24, Seed: 5})
	if len(tab.Rows) != 8 {
		t.Fatalf("expected 8 scale rows, got %d", len(tab.Rows))
	}
	better := 0
	for _, row := range tab.Rows {
		def, err1 := strconv.ParseFloat(row[3], 64)
		tuned, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad ms cells in row %v", row)
		}
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
	tab := RunContentionFig(ContentionFigOpts{Iters: 1, MaxCandidates: 16, Seed: 5})
	// 8 schedule rows + 8 trunk rows + 3 straggler + 4 autotune + 4 §VI-D1.
	if len(tab.Rows) != 27 {
		t.Fatalf("expected 27 rows, got %d", len(tab.Rows))
	}
	cell := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("bad ms cell %q in row %v", row[col], row)
		}
		return v
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
		off, on := cell(sched[i], 5), cell(sched[i+1], 5)
		if on < off {
			t.Errorf("contention sped up %v: off %v on %v", sched[i][3], off, on)
		}
		if sched[i][3] == "flat-sync" && on != off {
			t.Errorf("flat-sync must be contention-free: off %v on %v", off, on)
		}
	}
	for i := 0; i < len(sched); i += 4 {
		flatOn, bucketOn := cell(sched[i+1], 5), cell(sched[i+3], 5)
		if bucketOn >= flatOn {
			t.Errorf("%s: overlap win must survive contention (bucketed %v vs flat-sync %v)",
				sched[i][1], bucketOn, flatOn)
		}
	}
	// Trunk section: more oversubscription never gets cheaper.
	trunk := rows("trunk")
	for i := 2; i < len(trunk); i += 2 {
		if cell(trunk[i], 5) < cell(trunk[i-2], 5) {
			t.Errorf("fewer uplinks must not be faster: %v vs %v", trunk[i], trunk[i-2])
		}
	}
	// Straggler section: a derated trunk only slows things down.
	strag := rows("straggler")
	for i := 1; i < len(strag); i++ {
		if cell(strag[i], 5) < cell(strag[0], 5) {
			t.Errorf("derated trunk must not be faster: %v", strag[i])
		}
	}
	// Autotune section: tuned never worse than default under contention.
	auto := rows("autotune")
	for i := 0; i < len(auto); i += 2 {
		if cell(auto[i+1], 5) > cell(auto[i], 5)*1.0001 {
			t.Errorf("tuned-under-contention worse than default: %v vs %v", auto[i+1], auto[i])
		}
	}
	// §VI-D1 section: both interference mechanisms inflate their baseline.
	vid := rows("§VI-D1")
	if cell(vid[1], 5) <= cell(vid[0], 5) {
		t.Errorf("flat interference factor must slow the MPI run: %v vs %v", vid[1], vid[0])
	}
	if cell(vid[3], 5) <= cell(vid[2], 5) {
		t.Errorf("link-level contention must slow the overlapped CCL run: %v vs %v", vid[3], vid[2])
	}
}

func TestServingFigShape(t *testing.T) {
	tab := RunServing(DefaultServingFigOpts())
	// 2 scales × (B32 unbounded + B32 SLO + B128 SLO) × 3 loads.
	if len(tab.Rows) != 18 {
		t.Fatalf("%d rows, want 18:\n%s", len(tab.Rows), tab)
	}
	if len(tab.Headers) != 11 {
		t.Fatalf("%d headers, want 11", len(tab.Headers))
	}
	num := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
		if err != nil {
			t.Fatalf("cell %d of %v: %v", col, row, err)
		}
		return v
	}
	const (
		colShed, colP99, colQPS = 6, 9, 10
	)
	// MLPerf at 3.0x overload: the unbounded B32 policy (row 2) blows past
	// the SLO the bounded policy (row 5) holds, which sheds to stay there.
	if num(tab.Rows[5], colShed) == 0 {
		t.Errorf("SLO policy at 3x overload shed nothing: %v", tab.Rows[5])
	}
	if num(tab.Rows[5], colP99) >= num(tab.Rows[2], colP99) {
		t.Errorf("SLO policy p99 %v not below unbounded %v", tab.Rows[5], tab.Rows[2])
	}
	// Larger max-batch buys strictly more saturated throughput (B128 row 8
	// vs B32 row 2 at 3.0x), at both scales (rows 17 vs 11).
	for _, pair := range [][2]int{{8, 2}, {17, 11}} {
		if num(tab.Rows[pair[0]], colQPS) <= num(tab.Rows[pair[1]], colQPS) {
			t.Errorf("B128 throughput %v not above B32 %v", tab.Rows[pair[0]], tab.Rows[pair[1]])
		}
	}
	// Deterministic: a rerun renders bit-identically.
	if again := RunServing(DefaultServingFigOpts()); again.String() != tab.String() {
		t.Error("serving figure is not deterministic across reruns")
	}
}

func TestChurnFigShape(t *testing.T) {
	opts := ChurnFigOpts{Iters: 8, Intervals: []int{2}, Rates: []float64{0.05}, Seed: 1, Fig9Only: true}
	tab := RunChurn(opts)
	// Checkpoint-off baseline + fault-free per interval + 1-failure per
	// interval + churn per interval x rate.
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4:\n%s", len(tab.Rows), tab)
	}
	if len(tab.Headers) != 9 {
		t.Fatalf("%d headers, want 9", len(tab.Headers))
	}
	const (
		colFails, colFinalR, colTTR, colOver = 3, 4, 5, 8
	)
	// The checkpoint-off baseline defines 0% overhead and recovers nothing.
	if tab.Rows[0][colOver] != "0%" || tab.Rows[0][colFails] != "0" {
		t.Errorf("bad baseline row: %v", tab.Rows[0])
	}
	// The checkpointing tax alone must not beat the checkpoint-off baseline.
	if strings.HasPrefix(tab.Rows[1][colOver], "-") {
		t.Errorf("fault-free checkpointing beat the no-checkpoint baseline: %v", tab.Rows[1])
	}
	// The single mid-run failure loses exactly one of 64 ranks and pays a
	// positive time-to-recover.
	if tab.Rows[2][colFails] != "1" || tab.Rows[2][colFinalR] != "63" {
		t.Errorf("bad single-failure row: %v", tab.Rows[2])
	}
	if ttr, err := strconv.ParseFloat(tab.Rows[2][colTTR], 64); err != nil || ttr <= 0 {
		t.Errorf("single-failure TTR not positive: %v", tab.Rows[2])
	}
	// The churn schedule never drops below the floor of 32 ranks.
	if r, err := strconv.Atoi(tab.Rows[3][colFinalR]); err != nil || r < 32 || r > 64 {
		t.Errorf("churn final ranks out of [32,64]: %v", tab.Rows[3])
	}
	// Deterministic: a rerun renders bit-identically.
	if again := RunChurn(opts); again.String() != tab.String() {
		t.Error("churn figure is not deterministic across reruns")
	}
}
