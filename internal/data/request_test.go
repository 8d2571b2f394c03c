package data

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/embedding"
)

func testRequestLog() *RequestLog {
	return NewRequestLog(7, 8, []int{200, 300, 100, 250}, 3)
}

// TestRequestLogEntityRowReuse is the dataset's reason to exist: two
// requests that draw the same entity must present bit-identical sparse
// rows in every table — that recurrence is what a hot-row cache exploits.
func TestRequestLogEntityRowReuse(t *testing.T) {
	rl := testRequestLog()
	const n = 256
	// Find two distinct (batch, sample) coordinates sharing an entity.
	type coord struct{ i, s int }
	seen := map[int32]coord{}
	var a, b coord
	found := false
	for i := 0; i < 8 && !found; i++ {
		for s := 0; s < n; s++ {
			e := rl.Entity(i, s)
			if prev, ok := seen[e]; ok && (prev.i != i || prev.s != s) {
				a, b, found = prev, coord{i, s}, true
				break
			}
			seen[e] = coord{i, s}
		}
	}
	if !found {
		t.Fatal("no repeated entity in 8×256 requests — skew defaults broken")
	}
	bag := func(b *embedding.Batch, s int) []int32 {
		return b.Indices[b.Offsets[s]:b.Offsets[s+1]]
	}
	ma := rl.Batch(a.i, n)
	mb := rl.Batch(b.i, n)
	for tb := range rl.Rows {
		ra := bag(ma.Sparse[tb], a.s)
		rb := bag(mb.Sparse[tb], b.s)
		if len(ra) != rl.Lookups {
			t.Fatalf("table %d: %d lookups, want %d", tb, len(ra), rl.Lookups)
		}
		for l := range ra {
			if ra[l] != rb[l] {
				t.Fatalf("table %d lookup %d: same entity, rows %d vs %d",
					tb, l, ra[l], rb[l])
			}
		}
	}
}

// TestRequestLogEntitySkew checks the entity draws actually follow the
// configured Zipf: the measured head mass over the top-k entities must
// track the analytic CDF.
func TestRequestLogEntitySkew(t *testing.T) {
	rl := testRequestLog()
	const n = 50_000
	hits := 0
	const head = 1000
	for s := 0; s < n; s++ {
		if int(rl.Entity(0, s)) < head {
			hits++
		}
	}
	want := embedding.Zipf{S: rl.EntitySkew}.HeadMass(head, rl.Universe)
	got := float64(hits) / n
	if d := got - want; d < -0.03 || d > 0.03 {
		t.Errorf("top-%d entity mass %.4f, analytic %.4f", head, got, want)
	}
}

// TestRequestLogColumnMatchesRange: the random-access column fill must
// agree bit-for-bit with the full-range fill — the model-parallel loader
// contract every dataset honors.
func TestRequestLogColumnMatchesRange(t *testing.T) {
	rl := testRequestLog()
	const n = 64
	mb := &MiniBatch{}
	rl.FillRange(3, n, 0, n, mb)
	var col embedding.Batch
	for tb := range rl.Rows {
		rl.FillTableColumn(3, n, tb, 0, n, &col)
		if len(col.Indices) != len(mb.Sparse[tb].Indices) {
			t.Fatalf("table %d: column %d indices, range %d",
				tb, len(col.Indices), len(mb.Sparse[tb].Indices))
		}
		for i := range col.Indices {
			if col.Indices[i] != mb.Sparse[tb].Indices[i] {
				t.Fatalf("table %d index %d: column %d, range %d",
					tb, i, col.Indices[i], mb.Sparse[tb].Indices[i])
			}
		}
	}
}

// uncachedFill is FillRange without the profile head: every request's
// features straight from the teacher, then its label.
func uncachedFill(r *RequestLog, i, lo, hi int, mb *MiniBatch) {
	t := r.teacher()
	mb.Reset(hi-lo, r.D, len(t.tables))
	for s := lo; s < hi; s++ {
		e := int(r.Entity(i, s))
		pCTR := t.features(mb, s-lo, sampleStream(t.seed, reqProfTag, e, -1), reqProfTag, e, 0)
		label(mb, s-lo, pCTR, sampleStream(t.seed, reqLblTag, i, s))
	}
}

// batchDiff names the first difference between two batches, bit for bit:
// dense bits, every table's indices and offsets, label bits; "" if none.
func batchDiff(got, want *MiniBatch) string {
	if len(got.Dense.Data) != len(want.Dense.Data) || len(got.Labels) != len(want.Labels) {
		return fmt.Sprintf("shapes %d / %d dense, %d / %d labels",
			len(got.Dense.Data), len(want.Dense.Data), len(got.Labels), len(want.Labels))
	}
	for j := range want.Dense.Data {
		if math.Float32bits(got.Dense.Data[j]) != math.Float32bits(want.Dense.Data[j]) {
			return fmt.Sprintf("dense %d: %v, want %v", j, got.Dense.Data[j], want.Dense.Data[j])
		}
	}
	for ti, w := range want.Sparse {
		g := got.Sparse[ti]
		if !slices.Equal(g.Indices, w.Indices) || !slices.Equal(g.Offsets, w.Offsets) {
			return fmt.Sprintf("table %d: indices or offsets differ", ti)
		}
	}
	for k := range want.Labels {
		if math.Float32bits(got.Labels[k]) != math.Float32bits(want.Labels[k]) {
			return fmt.Sprintf("label %d: %v, want %v", k, got.Labels[k], want.Labels[k])
		}
	}
	return ""
}

// TestProfileHeadEqualsUncached: a fill through the profile head writes the
// bytes the teacher writes, whether the entity's profile is being built or
// copied, on both sides of the head's end, and with a universe smaller than
// the head. The slices overlap and repeat, so every profile they meet is read
// cold and warm.
func TestProfileHeadEqualsUncached(t *testing.T) {
	rows := []int{1, 3, 500, 70_000} // the degenerate tables and a long one
	cases := []struct {
		name     string
		build    func(seed int64) *RequestLog
		wantHead int
	}{
		// 4·1024 + 4·4·4 + 8 = 4 168 bytes an entity: 4 025 of 100 000 kept.
		{"boundary", func(seed int64) *RequestLog { return NewRequestLog(seed, 1024, rows, 4) }, 4025},
		{"small-universe", func(seed int64) *RequestLog {
			r := NewRequestLog(seed, 5, rows, 7)
			r.Universe = 300
			return r
		}, 300},
	}
	slicesOf := [][2]int{{0, 48}, {16, 64}, {0, 48}, {47, 48}, {30, 31}}
	for _, c := range cases {
		inHead, beyond, universe := 0, 0, 0
		for seed := int64(1); seed <= 6; seed++ {
			r := c.build(seed)
			universe = r.Universe
			got, want := &MiniBatch{}, &MiniBatch{}
			for i := 0; i < 3; i++ {
				for _, sl := range slicesOf {
					r.FillRange(i, 128, sl[0], sl[1], got)
					uncachedFill(r, i, sl[0], sl[1], want)
					if d := batchDiff(got, want); d != "" {
						t.Fatalf("%s seed %d batch %d [%d, %d): %s", c.name, seed, i, sl[0], sl[1], d)
					}
					for s := sl[0]; s < sl[1]; s++ {
						if int(r.Entity(i, s)) < len(r.head) {
							inHead++
						} else {
							beyond++
						}
					}
				}
			}
			if len(r.head) != c.wantHead {
				t.Fatalf("%s: head of %d entities, want %d", c.name, len(r.head), c.wantHead)
			}
		}
		if inHead == 0 || (beyond > 0) != (c.wantHead < universe) {
			t.Errorf("%s: %d requests inside the head, %d beyond it", c.name, inHead, beyond)
		}
	}
	// The serve-func shape: 16 MiB ÷ (4·512 + 4·8·50 + 8) bytes.
	serve := NewRequestLog(1, 512, []int{15_625, 15_625, 15_625, 15_625, 15_625, 15_625, 15_625, 15_625}, 50)
	serve.teacher()
	if len(serve.head) != 4588 {
		t.Errorf("serve-func shape: head of %d entities, want 4588", len(serve.head))
	}
}

// TestRequestLogDeterministic: repeated materialization of the same batch
// is bit-identical, and the batch passes the structural validator.
func TestRequestLogDeterministic(t *testing.T) {
	rl := testRequestLog()
	const n = 64
	a := rl.Batch(5, n)
	b := rl.Batch(5, n)
	if err := a.Validate(rl.Rows); err != nil {
		t.Fatalf("batch invalid: %v", err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d differs across fills", i)
		}
	}
	for i := range a.Dense.Data {
		if a.Dense.Data[i] != b.Dense.Data[i] {
			t.Fatalf("dense %d differs across fills", i)
		}
	}
	ones := 0
	for _, l := range a.Labels {
		if l == 1 {
			ones++
		}
	}
	if ones == 0 || ones == n {
		t.Errorf("degenerate labels: %d/%d positive", ones, n)
	}
}
