package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// fileHeader is a dataset header with the given dense width, table count,
// lookups per table and record count, and no records.
func fileHeader(d, tables, lookups, n uint32) []byte {
	b := make([]byte, 0, 20)
	for _, w := range []uint32{fileMagic, d, tables, lookups, n} {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// fileStream is a small ClickLog written as a dataset: 12 records of 1 + 4
// dense + 2 × 3 index words.
func fileStream(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteDataset(&buf, NewClickLog(5, 4, []int{60, 90}, 3), 12, 5, 3); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Headers that promise what no stream of records can deliver: no records
// (which used to open and then divide by zero in the first Batch); an
// index count S·P·N past int64, each field a uint32 (which used to panic
// in makeslice); 2⁴⁰ dense floats that fit an int but would be 4 TiB of
// buffers before the first record is read; and 2²⁴ tables of empty bags,
// whose one-word record is present but whose first Batch would build 2²⁴
// bag lists.
var hostileHeaders = map[string][]byte{
	"no records":         fileHeader(4, 1, 2, 0),
	"overflowing N·S·P":  fileHeader(1, math.MaxUint32, math.MaxUint32, 1),
	"terabytes of dense": fileHeader(1<<20, 0, 0, 1<<20),
	"empty bags":         append(fileHeader(0, 1<<24, 0, 1), 0, 0, 0, 0),
}

// TestOpenFileDatasetHostileHeaders: each hostile header is an error, not a
// panic, and costs no more memory than the stream.
func TestOpenFileDatasetHostileHeaders(t *testing.T) {
	for name, hdr := range hostileHeaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenFileDataset(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte stream", name, grew, len(hdr))
		}
	}
}

// TestOpenFileDatasetTruncated: a stream cut anywhere short of its last
// record is an error.
func TestOpenFileDatasetTruncated(t *testing.T) {
	full := fileStream(t)
	for n := 0; n < len(full); n++ {
		if _, err := OpenFileDataset(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("a stream cut to %d of %d bytes was accepted", n, len(full))
		}
	}
}

// FuzzOpenFileDataset feeds OpenFileDataset arbitrary bytes: it never
// panics, and a dataset it accepts fills whole and wrapped batches of the
// header's shape.
func FuzzOpenFileDataset(f *testing.F) {
	full := fileStream(f)
	f.Add(full)
	for _, n := range []int{0, 19, 20, 21, 45, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	for _, hdr := range hostileHeaders {
		f.Add(hdr)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ds, err := OpenFileDataset(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, n := range []int{ds.N, min(ds.N, 3)} {
			mb := ds.Batch(1, n)
			if mb.N != n || mb.Dense.Cols != ds.D || len(mb.Sparse) != ds.Tables {
				t.Fatalf("Batch(1, %d) of %+v: %d samples, %d dense, %d tables", n, ds, mb.N, mb.Dense.Cols, len(mb.Sparse))
			}
			for tb, bag := range mb.Sparse {
				if got := len(bag.Indices); got != n*ds.Lookups {
					t.Fatalf("table %d: %d indices, want %d", tb, got, n*ds.Lookups)
				}
			}
		}
	})
}
