package data

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/embedding"
)

// The golden hashes below were recorded from the commit before the per-table
// Zipf samplers and the teacher's head-score cache existed (every draw two
// math.Pow, every latent score recomputed): the generators got cheaper, the
// bytes of every batch did not change. The cases with bags of 13 and 50
// lookups were recorded later, on the per-draw generator, before the bag
// path (ZipfSampler.DrawBag and the gathered score sum) existed. A different
// value here means different training data, which no performance change may
// cause.

// goldenRows covers the degenerate tables (1 and 3 rows), the train-emb
// shape, and the largest Criteo table.
var goldenRows = []int{1, 3, 250_000, 39_884_406}

// goldenSlices are (seed, batch i, batch size n, lo, hi): a full batch, an
// interior shard, the single last sample of a late batch, a second seed, and
// a batch long enough to draw rows far beyond any cached head.
var goldenSlices = [][5]int{
	{1, 0, 64, 0, 64},
	{1, 3, 64, 16, 48},
	{1, 1000, 128, 127, 128},
	{2, 7, 96, 0, 96},
	{3, 5, 512, 0, 512},
}

func hashSparse(h interface{ Write([]byte) (int, error) }, b *embedding.Batch) {
	binary.Write(h, binary.LittleEndian, int32(len(b.Indices)))
	binary.Write(h, binary.LittleEndian, b.Indices)
	binary.Write(h, binary.LittleEndian, b.Offsets)
}

// goldenHash fills every golden slice of the dataset build(seed) returns —
// FillRange, then every table's FillTableColumn — and hashes all the bytes.
func goldenHash(build func(seed int64) Dataset) uint64 {
	h := fnv.New64a()
	mb, col := &MiniBatch{}, &embedding.Batch{}
	for _, c := range goldenSlices {
		ds := build(int64(c[0]))
		i, n, lo, hi := c[1], c[2], c[3], c[4]
		ds.FillRange(i, n, lo, hi, mb)
		for _, v := range mb.Dense.Data {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
		binary.Write(h, binary.LittleEndian, mb.Labels)
		for _, b := range mb.Sparse {
			hashSparse(h, b)
		}
		for t := 0; t < ds.NumTables(); t++ {
			ds.FillTableColumn(i, n, t, lo, hi, col)
			hashSparse(h, col)
		}
	}
	return h.Sum64()
}

func TestGoldenBatches(t *testing.T) {
	if runtime.GOARCH != "amd64" || cpu.Vector() == cpu.Go {
		// math.Exp / Log / Pow / Cos are not bit-identical across
		// architectures (assembly on some, fusable multiply-adds on others),
		// and amd64's Exp has a second path for CPUs without FMA.
		t.Skip("golden batch hashes are recorded on amd64 with FMA")
	}
	cases := []struct {
		name  string
		build func(seed int64) Dataset
		want  uint64
	}{
		{"ClickLog", func(seed int64) Dataset { return NewClickLog(seed, 5, goldenRows, 7) }, 0xfdcf2b986d8be82},
		{"ClickLog/literal", func(seed int64) Dataset {
			// No constructor: no dense teacher weights, so D must be 0.
			return &ClickLog{Seed: seed, Rows: goldenRows, Lookups: 3, Skew: 0.5, TableSignal: 1, Bias: 0.1}
		}, 0x40dd16d5dd393e1d},
		{"ClickLog/skew1", func(seed int64) Dataset {
			c := NewClickLog(seed, 2, goldenRows, 2)
			c.Skew = 1
			return c
		}, 0xce2d4af737c52f09},
		{"RequestLog", func(seed int64) Dataset { return NewRequestLog(seed, 5, goldenRows, 7) }, 0x60359c5be68ac259},
		// Bags of at least one vector: the generator's bag path (DrawBag
		// and the score gather) at the train-emb shape, at s = 1, on the
		// request log, and with a partial vector (13 = 8 + 5).
		{"ClickLog/P50", func(seed int64) Dataset { return NewClickLog(seed, 16, []int{250_000, 250_000}, 50) }, 0xd179748faa82cfa3},
		{"ClickLog/P50/skew1", func(seed int64) Dataset {
			c := NewClickLog(seed, 2, goldenRows, 50)
			c.Skew = 1
			return c
		}, 0xb2d2e33d3e53568c},
		{"RequestLog/P50", func(seed int64) Dataset { return NewRequestLog(seed, 5, goldenRows, 50) }, 0x3f34d3a699895205},
		{"ClickLog/P13", func(seed int64) Dataset {
			return &ClickLog{Seed: seed, Rows: goldenRows, Lookups: 13, Skew: 0.5, TableSignal: 1, Bias: 0.1}
		}, 0x333badbb014bbee9},
		{"Random", func(seed int64) Dataset {
			return &Random{Seed: seed, D: 5, Tables: 3, Rows: 250_000, Lookups: 7}
		}, 0x315a39e99bf252a5},
	}
	for _, c := range cases {
		if got := goldenHash(c.build); got != c.want {
			t.Errorf("%s: batch bytes hash %#x, recorded %#x", c.name, got, c.want)
		}
	}
}
