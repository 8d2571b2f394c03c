package embstore

import (
	"math/rand"
	"testing"

	"repro/internal/embedding"
	"repro/internal/par"
	"repro/internal/testenv"
)

// twinTables builds two identically initialized table shards, so the tiered
// and untiered paths can run side by side and be compared bit-for-bit.
func twinTables(nTables, m, e int) (ref, tiered []*embedding.Table) {
	for t := 0; t < nTables; t++ {
		ref = append(ref, embedding.NewTable(m, e, rand.New(rand.NewSource(int64(100+t))), 0.05))
		tiered = append(tiered, embedding.NewTable(m, e, rand.New(rand.NewSource(int64(100+t))), 0.05))
	}
	return
}

// oneRowBatch is a single-bag, single-lookup batch for row r.
func oneRowBatch(r int32) *embedding.Batch {
	return &embedding.Batch{Indices: []int32{r}, Offsets: []int32{0, 1}}
}

// TestCachedPathBitIdentical is the core cache invariant: at ANY budget —
// nothing cached, eviction-heavy, comfortable, everything resident — the
// store's forward outputs are bit-identical to Table.Forward every
// iteration, and after Flush the tables hold bit-identical weights to a
// shard trained with Table.Update(RaceFree). Zipf traffic keeps the hot
// head cached while the tail churns through admission and eviction.
func TestCachedPathBitIdentical(t *testing.T) {
	const (
		nTables = 3
		m       = 512
		e       = 8
		iters   = 40
		lr      = float32(0.05)
	)
	rowBytes := 4*e + RowOverheadBytes
	for _, budget := range []int{0, 3 * rowBytes, 64 * rowBytes, nTables * m * rowBytes} {
		ref, tiered := twinTables(nTables, m, e)
		st, err := New(budget, tiered)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		outRef := make([]float32, 32*e)
		outSt := make([]float32, 32*e)
		for it := 0; it < iters; it++ {
			for li := 0; li < nTables; li++ {
				b := embedding.MakeBatch(rng, embedding.Zipf{S: 1.05}, 32, 4, m)
				ref[li].Forward(par.Default, b, outRef)
				st.Forward(li, b, outSt)
				for i := range outRef {
					if outRef[i] != outSt[i] {
						t.Fatalf("budget=%d iter=%d table=%d: forward diverges at %d: %v vs %v",
							budget, it, li, i, outRef[i], outSt[i])
					}
				}
				dW := make([]float32, b.NumLookups()*e)
				for i := range dW {
					dW[i] = rng.Float32() - 0.5
				}
				ref[li].Update(par.Default, embedding.RaceFree, b, dW, lr)
				st.Update(li, b, dW, lr)
			}
		}
		st.Flush()
		for li := 0; li < nTables; li++ {
			for i := range ref[li].W {
				if ref[li].W[i] != tiered[li].W[i] {
					t.Fatalf("budget=%d table=%d: weights diverge at %d: %v vs %v",
						budget, li, i, ref[li].W[i], tiered[li].W[i])
				}
			}
		}
		if budget >= 64*rowBytes && st.Stats.Hits == 0 {
			t.Errorf("budget=%d: Zipf traffic produced no cache hits", budget)
		}
		if budget == 3*rowBytes && st.Stats.Evictions == 0 {
			t.Errorf("budget=%d: eviction-sized cache never evicted", budget)
		}
	}
}

// TestEvictionNeverExceedsBudget hammers a tiny cache with far more
// distinct rows than it can hold (touching each twice so the doorkeeper
// admits them) and checks occupancy and accounted bytes never exceed the
// construction budget.
func TestEvictionNeverExceedsBudget(t *testing.T) {
	const m, e = 4096, 8
	rowBytes := 4*e + RowOverheadBytes
	budget := 5*rowBytes + rowBytes/2 // deliberately not row-aligned
	tabs := []*embedding.Table{embedding.NewTable(m, e, rand.New(rand.NewSource(1)), 0.05)}
	st, err := New(budget, tabs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() > budget {
		t.Fatalf("Bytes() %d exceeds budget %d at construction", st.Bytes(), budget)
	}
	out := make([]float32, e)
	for r := int32(0); r < 1000; r++ {
		st.Forward(0, oneRowBatch(r), out)
		st.Forward(0, oneRowBatch(r), out) // repeat miss → admitted
		if st.Len() > st.CapRows() {
			t.Fatalf("occupancy %d exceeds capacity %d", st.Len(), st.CapRows())
		}
		if st.Bytes() > budget {
			t.Fatalf("Bytes() %d exceeds budget %d", st.Bytes(), budget)
		}
	}
	if st.Stats.Evictions == 0 {
		t.Error("1000 admitted rows through a 5-row cache never evicted")
	}
}

// TestDirtyWriteBackBeforeEviction updates one row through the cache, then
// churns enough other rows through to evict it, and checks — without any
// Flush — that the authoritative table row received the update before the
// slot was reused.
func TestDirtyWriteBackBeforeEviction(t *testing.T) {
	const m, e = 256, 4
	rowBytes := 4*e + RowOverheadBytes
	tabs := []*embedding.Table{embedding.NewTable(m, e, rand.New(rand.NewSource(2)), 0.05)}
	st, err := New(2*rowBytes, tabs)
	if err != nil {
		t.Fatal(err)
	}
	const hot = int32(5)
	lr := float32(0.1)
	d1 := []float32{1, 2, 3, 4}
	d2 := []float32{5, 6, 7, 8}
	want := make([]float32, e)
	copy(want, tabs[0].Row(int(hot)))
	for i := range want {
		want[i] -= lr * d1[i] // first update passes through to the table
	}
	for i := range want {
		want[i] -= lr * d2[i] // second admits, then updates the cached copy
	}
	st.Update(0, oneRowBatch(hot), d1, lr)
	st.Update(0, oneRowBatch(hot), d2, lr)
	if st.Len() != 1 {
		t.Fatalf("row not admitted on repeat miss: occupancy %d", st.Len())
	}
	out := make([]float32, e)
	for r := int32(100); r < 140; r++ {
		st.Forward(0, oneRowBatch(r), out)
		st.Forward(0, oneRowBatch(r), out)
	}
	if got := st.lookup(packKey(0, hot)); got >= 0 {
		t.Fatal("hot row survived the churn; test needs more eviction pressure")
	}
	for i, w := range want {
		if tabs[0].Row(int(hot))[i] != w {
			t.Fatalf("table row lost the dirty update at %d: %v want %v",
				i, tabs[0].Row(int(hot))[i], w)
		}
	}
	if st.Stats.Writebacks == 0 {
		t.Error("eviction of a dirty row recorded no write-back")
	}
}

// TestAdmissionFiltersOneShotScan: a scan that touches every row exactly
// once — the canonical cache-killer — admits nothing, because the exact
// doorkeeper requires a repeat miss. A genuinely hot row then earns its
// slot on the second touch.
func TestAdmissionFiltersOneShotScan(t *testing.T) {
	const m, e = 8192, 8
	tabs := []*embedding.Table{embedding.NewTable(m, e, rand.New(rand.NewSource(3)), 0.05)}
	st, err := New(64*(4*e+RowOverheadBytes), tabs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, e)
	for r := int32(0); r < 2000; r++ {
		st.Forward(0, oneRowBatch(r), out)
	}
	if st.Stats.Admits != 0 || st.Len() != 0 {
		t.Fatalf("one-shot scan admitted %d rows (occupancy %d), want 0", st.Stats.Admits, st.Len())
	}
	st.Forward(0, oneRowBatch(42), out)
	st.Forward(0, oneRowBatch(42), out)
	if st.Stats.Admits != 1 {
		t.Fatalf("repeat-missed row not admitted: %d admits", st.Stats.Admits)
	}
	st.Forward(0, oneRowBatch(42), out)
	if st.Stats.Hits != 1 {
		t.Fatalf("admitted row not hit: %d hits", st.Stats.Hits)
	}
}

// TestMeasuredHitRateTracksModel drives steady Zipf traffic and checks the
// measured hit rate lands near the analytic HitRate the cost models charge
// — CLOCK + doorkeeper approximate keep-the-head LFU, so the tolerance is
// loose, but a broken generator or a thrashing policy both land far out.
func TestMeasuredHitRateTracksModel(t *testing.T) {
	const m, e, skew = 20000, 8, 1.05
	budget := 1000 * (4*e + RowOverheadBytes)
	tabs := []*embedding.Table{embedding.NewTable(m, e, rand.New(rand.NewSource(4)), 0.05)}
	st, err := New(budget, tabs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	out := make([]float32, 64*e)
	for it := 0; it < 200; it++ {
		b := embedding.MakeBatch(rng, embedding.Zipf{S: skew}, 64, 4, m)
		st.Forward(0, b, out)
		if it == 99 {
			st.ResetStats() // discard the cold-start window
		}
	}
	model := HitRate(budget, e, []int{m}, skew)
	got := st.Stats.HitRate()
	if diff := got - model; diff < -0.15 || diff > 0.15 {
		t.Errorf("measured hit rate %.3f vs modeled %.3f (tolerance 0.15)", got, model)
	}
}

// TestZeroBudgetPassThrough: a zero budget must behave exactly like no
// store at all — pure table access, nothing cached, nothing admitted.
func TestZeroBudgetPassThrough(t *testing.T) {
	const m, e = 128, 8
	ref, tiered := twinTables(1, m, e)
	st, err := New(0, tiered)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b := embedding.MakeBatch(rng, embedding.Uniform{}, 16, 4, m)
	outRef := make([]float32, 16*e)
	outSt := make([]float32, 16*e)
	ref[0].Forward(par.Default, b, outRef)
	st.Forward(0, b, outSt)
	for i := range outRef {
		if outRef[i] != outSt[i] {
			t.Fatalf("pass-through forward diverges at %d", i)
		}
	}
	if st.CapRows() != 0 || st.Bytes() != 0 || st.Stats.Admits != 0 {
		t.Errorf("zero budget cached something: cap=%d bytes=%d admits=%d",
			st.CapRows(), st.Bytes(), st.Stats.Admits)
	}
}

// TestStoreSteadyStateZeroAllocs pins the repo's allocation convention for
// the new tier: once constructed, Forward/Update/Flush traffic — hits,
// misses, admissions, evictions, write-backs — allocates nothing.
func TestStoreSteadyStateZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const m, e = 4096, 16
	tabs := []*embedding.Table{embedding.NewTable(m, e, rand.New(rand.NewSource(8)), 0.05)}
	st, err := New(128*(4*e+RowOverheadBytes), tabs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	batches := make([]*embedding.Batch, 8)
	dWs := make([][]float32, 8)
	for i := range batches {
		batches[i] = embedding.MakeBatch(rng, embedding.Zipf{S: 1.05}, 32, 4, m)
		dWs[i] = make([]float32, batches[i].NumLookups()*e)
	}
	out := make([]float32, 32*e)
	i := 0
	step := func() {
		b := batches[i%len(batches)]
		st.Forward(0, b, out)
		st.Update(0, b, dWs[i%len(dWs)], 0.01)
		i++
	}
	step()
	step()
	st.Flush()
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Errorf("%v allocs per steady-state store iteration, want 0", got)
	}
	if got := testing.AllocsPerRun(5, st.Flush); got != 0 {
		t.Errorf("%v allocs per Flush, want 0", got)
	}
}

// TestRowsForBudget pins the capacity arithmetic and its edge cases.
func TestRowsForBudget(t *testing.T) {
	rowBytes := 4*16 + RowOverheadBytes
	for _, tc := range []struct{ budget, e, want int }{
		{0, 16, 0},
		{-5, 16, 0},
		{rowBytes - 1, 16, 0},
		{rowBytes, 16, 1},
		{10*rowBytes + 3, 16, 10},
	} {
		if got := RowsForBudget(tc.budget, tc.e); got != tc.want {
			t.Errorf("RowsForBudget(%d, %d) = %d, want %d", tc.budget, tc.e, got, tc.want)
		}
	}
}
