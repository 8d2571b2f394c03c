package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/embedding"
)

// Binary record format for click-log datasets — the stand-in for the Criteo
// Terabyte day files. A stream is a header (magic, dense width, table
// count, lookups per table) followed by fixed-size records: one float32
// label, D float32 dense features, and S·P int32 table indices. Fixed-size
// records let a loader seek to any sample, which is what minibatch sharding
// over a file needs.

const fileMagic = 0x434C4F47 // "CLOG"

// WriteDataset materializes n samples from ds (drawn as consecutive batches
// of batchN) into w. Variable-size bags are not supported by the fixed
// record format; ds must produce exactly lookups indices per bag.
func WriteDataset(w io.Writer, ds Dataset, n, batchN, lookups int) error {
	return WriteDatasetShard(w, ds, 0, 1, n, batchN, lookups)
}

// WriteDatasetShard writes rank r of R's sample shard of each consecutive
// batchN-sample batch of ds — the per-rank split of the source data a
// sharded file loader serves — until n global samples have been covered.
// Batches are staged through one reused MiniBatch, so writing streams
// rather than accumulating garbage. R=1 writes the full dataset.
func WriteDatasetShard(w io.Writer, ds Dataset, r, R, n, batchN, lookups int) error {
	bw := bufio.NewWriter(w)
	batches := (n + batchN - 1) / batchN
	// The shard's record count: each global batch (the last may be partial)
	// contributes its [r·bn/R, (r+1)·bn/R) slice.
	total := 0
	for batch := 0; batch < batches; batch++ {
		bn := min(batchN, n-batch*batchN)
		total += bn*(r+1)/R - bn*r/R
	}
	hdr := []uint32{fileMagic, uint32(ds.DenseDim()), uint32(ds.NumTables()), uint32(lookups),
		uint32(total)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	mb := &MiniBatch{}
	for batch := 0; batch < batches; batch++ {
		bn := min(batchN, n-batch*batchN)
		ds.FillRange(batch, batchN, bn*r/R, bn*(r+1)/R, mb)
		for s := 0; s < mb.N; s++ {
			if err := binary.Write(bw, binary.LittleEndian, mb.Labels[s]); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, mb.Dense.Row(s)); err != nil {
				return err
			}
			for t, b := range mb.Sparse {
				blo, bhi := b.Offsets[s], b.Offsets[s+1]
				if int(bhi-blo) != lookups {
					return fmt.Errorf("data: table %d bag %d has %d lookups, format needs %d",
						t, s, bhi-blo, lookups)
				}
				if err := binary.Write(bw, binary.LittleEndian, b.Indices[blo:bhi]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// FileDataset serves minibatches from a record stream written by
// WriteDataset, loaded into memory (the paper's loader also materializes
// the batch; a terabyte-scale variant would mmap).
type FileDataset struct {
	D, Tables, Lookups, N int

	labels  []float32
	dense   []float32
	indices []int32 // N × Tables × Lookups
}

// OpenFileDataset parses a record stream. The header is not trusted: a
// stream with no records, empty bags, or a record count or record width
// past math.MaxInt32 is rejected, and the buffers grow only as records
// arrive, so a header promising more than the stream holds costs no more
// memory than the stream and ends in an error.
func OpenFileDataset(r io.Reader) (*FileDataset, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("data: dataset header: %w", err)
	}
	if hdr[0] != fileMagic {
		return nil, fmt.Errorf("data: not a click-log dataset (magic %08x)", hdr[0])
	}
	if hdr[4] == 0 || hdr[4] > math.MaxInt32 {
		return nil, fmt.Errorf("data: dataset header promises %d records", hdr[4])
	}
	if hdr[3] == 0 {
		// Every table then costs at least one word per record, so a batch's
		// per-table buffers are bounded by the stream too.
		return nil, fmt.Errorf("data: dataset header has empty bags (0 lookups per table)")
	}
	if w := 1 + uint64(hdr[1]) + uint64(hdr[2])*uint64(hdr[3]); w > math.MaxInt32 {
		return nil, fmt.Errorf("data: dataset header describes %d-word records, more than %d", w, math.MaxInt32)
	}
	f := &FileDataset{
		D: int(hdr[1]), Tables: int(hdr[2]), Lookups: int(hdr[3]), N: int(hdr[4]),
	}
	var buf [4096]byte
	var err error
	for s := 0; s < f.N; s++ {
		if f.labels, err = appendWords(f.labels, br, 1, buf[:], math.Float32frombits); err != nil {
			return nil, fmt.Errorf("data: record %d: %w", s, err)
		}
		if f.dense, err = appendWords(f.dense, br, f.D, buf[:], math.Float32frombits); err != nil {
			return nil, fmt.Errorf("data: record %d dense: %w", s, err)
		}
		if f.indices, err = appendWords(f.indices, br, f.Tables*f.Lookups, buf[:], func(u uint32) int32 { return int32(u) }); err != nil {
			return nil, fmt.Errorf("data: record %d indices: %w", s, err)
		}
	}
	return f, nil
}

// appendWords appends n little-endian 32-bit words read from r to dst,
// through buf a block at a time, so dst grows only by what r delivers.
func appendWords[T float32 | int32](dst []T, r io.Reader, n int, buf []byte, conv func(uint32) T) ([]T, error) {
	for n > 0 {
		k := min(n, len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return dst, err
		}
		for i := 0; i < k; i++ {
			dst = append(dst, conv(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		n -= k
	}
	return dst, nil
}

// NumTables implements Dataset.
func (f *FileDataset) NumTables() int { return f.Tables }

// DenseDim implements Dataset.
func (f *FileDataset) DenseDim() int { return f.D }

// Batch implements Dataset: batch i covers samples [i·n, (i+1)·n) modulo
// the dataset size (wrapping like epoch iteration does).
func (f *FileDataset) Batch(i, n int) *MiniBatch { return materialize(f, i, n) }

// FillRange implements Dataset.
func (f *FileDataset) FillRange(i, n, lo, hi int, mb *MiniBatch) {
	mb.Reset(hi-lo, f.D, f.Tables)
	per := f.Tables * f.Lookups
	for s := lo; s < hi; s++ {
		src := (i*n + s) % f.N
		out := s - lo
		mb.Labels[out] = f.labels[src]
		copy(mb.Dense.Row(out), f.dense[src*f.D:(src+1)*f.D])
		rec := f.indices[src*per : (src+1)*per]
		for t := 0; t < f.Tables; t++ {
			b := mb.Sparse[t]
			b.Indices = append(b.Indices, rec[t*f.Lookups:(t+1)*f.Lookups]...)
			b.Offsets[out+1] = int32(len(b.Indices))
		}
	}
}

// FillTableColumn implements Dataset.
func (f *FileDataset) FillTableColumn(i, n, t, lo, hi int, b *embedding.Batch) {
	b.Reset(hi - lo)
	per := f.Tables * f.Lookups
	for s := lo; s < hi; s++ {
		src := (i*n+s)%f.N*per + t*f.Lookups
		b.Indices = append(b.Indices, f.indices[src:src+f.Lookups]...)
		b.Offsets[s-lo+1] = int32(len(b.Indices))
	}
}
