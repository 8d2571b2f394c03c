package data

import (
	"bytes"
	"math"
	"testing"
)

func TestRandomBatchShape(t *testing.T) {
	ds := &Random{Seed: 1, D: 16, Tables: 4, Rows: 100, Lookups: 5}
	mb := ds.Batch(0, 32)
	if err := mb.Validate([]int{100, 100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	if mb.Dense.Rows != 32 || mb.Dense.Cols != 16 {
		t.Fatal("dense shape wrong")
	}
	for _, b := range mb.Sparse {
		if b.NumLookups() != 32*5 {
			t.Fatal("lookup count wrong")
		}
	}
}

func TestBatchDeterministicByIndex(t *testing.T) {
	ds := &Random{Seed: 7, D: 4, Tables: 2, Rows: 50, Lookups: 3}
	a := ds.Batch(3, 16)
	b := ds.Batch(3, 16)
	for i := range a.Dense.Data {
		if a.Dense.Data[i] != b.Dense.Data[i] {
			t.Fatal("same batch index must be deterministic")
		}
	}
	c := ds.Batch(4, 16)
	same := true
	for i := range a.Dense.Data {
		if a.Dense.Data[i] != c.Dense.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different batch indices must differ")
	}
}

func TestClickLogLabelsLearnable(t *testing.T) {
	// The planted teacher must make labels predictable from its own logits:
	// check the empirical CTR of samples whose hot rows have positive latent
	// scores exceeds those with negative — indirectly, by checking overall
	// label rate is sane and correlated with table identity via repeats.
	ds := NewClickLog(11, 8, []int{1000, 1000}, 2)
	mb := ds.Batch(0, 4096)
	if err := mb.Validate([]int{1000, 1000}); err != nil {
		t.Fatal(err)
	}
	var pos float64
	for _, l := range mb.Labels {
		pos += float64(l)
	}
	rate := pos / float64(mb.N)
	if rate < 0.15 || rate > 0.85 {
		t.Fatalf("label rate %.3f out of sane range", rate)
	}
}

func TestClickLogZipfSkewPresent(t *testing.T) {
	ds := NewClickLog(3, 4, []int{100000}, 1)
	mb := ds.Batch(0, 8192)
	hot := 0
	for _, ix := range mb.Sparse[0].Indices {
		if ix < 100 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(mb.Sparse[0].Indices))
	if frac < 0.3 {
		t.Fatalf("click-log indices not skewed enough: top-100 gets %.3f", frac)
	}
}

func TestLatentStableAndZeroMeanish(t *testing.T) {
	ds := NewClickLog(5, 4, []int{10000, 10000}, 1).teacher()
	if ds.latent(0, 42) != ds.latent(0, 42) {
		t.Fatal("latent must be deterministic")
	}
	if ds.latent(0, 42) == ds.latent(1, 42) {
		t.Fatal("latent must differ across tables")
	}
	var sum, sumSq float64
	const n = 10000
	for i := int32(0); i < n; i++ {
		v := ds.latent(0, i)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("latent mean %.3f not ≈0", mean)
	}
	if math.Abs(std-ds.signal) > 0.1 {
		t.Fatalf("latent std %.3f want ≈%.2f", std, ds.signal)
	}
}

func TestShardPartitionsBatch(t *testing.T) {
	ds := &Random{Seed: 2, D: 4, Tables: 3, Rows: 64, Lookups: 2}
	mb := ds.Batch(0, 12)
	const R = 4
	total := 0
	sh := &MiniBatch{} // reused across ranks, as a loader's staging batch is
	for r := 0; r < R; r++ {
		lo, hi := ShardRange(mb.N, r, R)
		ds.FillRange(0, mb.N, lo, hi, sh)
		if err := sh.Validate([]int{64, 64, 64}); err != nil {
			t.Fatalf("shard %d invalid: %v", r, err)
		}
		total += sh.N
		// Shard rows must match the global batch.
		for i := 0; i < sh.N; i++ {
			for c := 0; c < 4; c++ {
				if sh.Dense.At(i, c) != mb.Dense.At(lo+i, c) {
					t.Fatal("shard dense rows mismatch")
				}
			}
			if sh.Labels[i] != mb.Labels[lo+i] {
				t.Fatal("shard labels mismatch")
			}
		}
		// Sparse: shard bag s must equal global bag lo+s.
		for ti, b := range sh.Sparse {
			g := mb.Sparse[ti]
			for s := 0; s < sh.N; s++ {
				sLo, sHi := b.Offsets[s], b.Offsets[s+1]
				gLo, gHi := g.Offsets[lo+s], g.Offsets[lo+s+1]
				if sHi-sLo != gHi-gLo {
					t.Fatal("shard bag size mismatch")
				}
				for k := int32(0); k < sHi-sLo; k++ {
					if b.Indices[sLo+k] != g.Indices[gLo+k] {
						t.Fatal("shard bag indices mismatch")
					}
				}
			}
		}
	}
	if total != mb.N {
		t.Fatalf("shards cover %d of %d samples", total, mb.N)
	}
}

func TestCriteoTBRows(t *testing.T) {
	if len(CriteoTBRows) != 26 {
		t.Fatalf("MLPerf DLRM has 26 tables, got %d", len(CriteoTBRows))
	}
	var sum, maxRows int
	for _, r := range CriteoTBRows {
		sum += r
		if r > maxRows {
			maxRows = r
		}
	}
	if maxRows > 40_000_000 {
		t.Fatal("rows must be capped at 40M (Table I)")
	}
	// Total table memory at E=128: ≈96 GB (Table II says 98).
	gb := float64(sum) * 128 * 4 / 1e9
	if gb < 90 || gb > 105 {
		t.Fatalf("MLPerf table capacity %.1f GB, want ≈98", gb)
	}
}

func TestScaleRows(t *testing.T) {
	rows := ScaleRows([]int{1000, 3, 40_000_000}, 0.001)
	if rows[0] != 1 || rows[1] != 1 || rows[2] != 40000 {
		t.Fatalf("ScaleRows wrong: %v", rows)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	ds := &Random{Seed: 1, D: 4, Tables: 2, Rows: 10, Lookups: 1}
	mb := ds.Batch(0, 4)
	if err := mb.Validate([]int{10}); err == nil {
		t.Fatal("table count mismatch not caught")
	}
	if err := mb.Validate([]int{10, 2}); err == nil {
		t.Fatal("out-of-range indices not caught")
	}
}

func TestFileDatasetRoundTrip(t *testing.T) {
	src := NewClickLog(9, 6, []int{100, 200}, 3)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, src, 50, 16, 3); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFileDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.N != 50 || f.D != 6 || f.Tables != 2 || f.Lookups != 3 {
		t.Fatalf("header wrong: %+v", f)
	}
	// The first batch must reproduce the source samples exactly.
	want := src.Batch(0, 16)
	got := f.Batch(0, 16)
	if err := got.Validate([]int{100, 200}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if got.Labels[s] != want.Labels[s] {
			t.Fatalf("label %d mismatch", s)
		}
		for c := 0; c < 6; c++ {
			if got.Dense.At(s, c) != want.Dense.At(s, c) {
				t.Fatalf("dense (%d,%d) mismatch", s, c)
			}
		}
		for ti := range got.Sparse {
			gl, gh := got.Sparse[ti].Offsets[s], got.Sparse[ti].Offsets[s+1]
			wl := want.Sparse[ti].Offsets[s]
			for k := int32(0); k < gh-gl; k++ {
				if got.Sparse[ti].Indices[gl+k] != want.Sparse[ti].Indices[wl+k] {
					t.Fatalf("indices mismatch sample %d table %d", s, ti)
				}
			}
		}
	}
}

func TestFileDatasetWraps(t *testing.T) {
	src := NewClickLog(9, 4, []int{50}, 2)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, src, 10, 10, 2); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFileDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// A batch past the end wraps around rather than failing.
	mb := f.Batch(3, 8) // samples 24..31 mod 10
	if mb.N != 8 {
		t.Fatal("wrapped batch wrong size")
	}
	first := f.Batch(0, 10)
	if mb.Labels[0] != first.Labels[4] { // 24 mod 10 = 4
		t.Fatal("wrap offset wrong")
	}
}

func TestOpenFileDatasetRejectsGarbage(t *testing.T) {
	if _, err := OpenFileDataset(bytes.NewReader([]byte("garbage bytes here........"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestWriteDatasetRejectsVariableBags(t *testing.T) {
	src := NewClickLog(9, 4, []int{50}, 2)
	var buf bytes.Buffer
	// Claim 3 lookups while the source produces 2: must error.
	if err := WriteDataset(&buf, src, 10, 10, 3); err == nil {
		t.Fatal("lookups mismatch accepted")
	}
}

func TestWriteDatasetShardSplitsBatches(t *testing.T) {
	src := NewClickLog(9, 5, []int{100, 40}, 2)
	const n, batchN, R = 40, 16, 3
	var full bytes.Buffer
	if err := WriteDataset(&full, src, n, batchN, 2); err != nil {
		t.Fatal(err)
	}
	fullDS, err := OpenFileDataset(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Each shard writer must emit exactly rank r's slice of every global
	// batch; together the shards repartition the full file.
	total := 0
	for r := 0; r < R; r++ {
		var buf bytes.Buffer
		if err := WriteDatasetShard(&buf, src, r, R, n, batchN, 2); err != nil {
			t.Fatal(err)
		}
		sh, err := OpenFileDataset(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		total += sh.N
		// Walk the shard's records against the full file's batches.
		rec := 0
		for batch := 0; batch*batchN < n; batch++ {
			bn := min(batchN, n-batch*batchN)
			lo, hi := bn*r/R, bn*(r+1)/R
			for s := lo; s < hi; s++ {
				want := fullDS.Batch(0, fullDS.N) // whole file as one batch
				got := sh.Batch(0, sh.N)
				gsrc := batch*batchN + s
				if got.Labels[rec] != want.Labels[gsrc] {
					t.Fatalf("rank %d record %d: label mismatch vs global sample %d", r, rec, gsrc)
				}
				for c := 0; c < 5; c++ {
					if got.Dense.At(rec, c) != want.Dense.At(gsrc, c) {
						t.Fatalf("rank %d record %d dense col %d mismatch", r, rec, c)
					}
				}
				rec++
			}
		}
		if rec != sh.N {
			t.Fatalf("rank %d: walked %d records, file has %d", r, rec, sh.N)
		}
	}
	if total != n {
		t.Fatalf("shards hold %d of %d samples", total, n)
	}
}
