package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/par"
)

// withKernel runs f with the dispatch variable pinned to k (nil = Go bodies).
func withKernel(t testing.TB, k *rowKernel, f func()) {
	t.Helper()
	old := kernel
	kernel = k
	defer func() { kernel = old }()
	f()
}

// eachVectorKernel runs f as a subtest under every vector kernel of this
// machine, or skips when there is none.
func eachVectorKernel(t *testing.T, f func(t *testing.T)) {
	if len(kernels) == 0 {
		t.Skip("no vector kernel on this machine")
	}
	for _, k := range kernels {
		t.Run(k.isa, func(t *testing.T) { withKernel(t, k, func() { f(t) }) })
	}
}

// everyKernel is the Go bodies (nil) and each vector kernel of this machine.
var everyKernel = append([]*rowKernel{nil}, kernels...)

const guard = float32(-777)

// guarded returns a slice of n floats that starts `skew` floats past a
// 64-byte boundary of a larger buffer whose other elements hold guard, and
// a check that the surroundings still do.
func guarded(n, skew int) (s []float32, intact func() bool) {
	const pad = 64
	buf := make([]float32, n+2*pad+16)
	for i := range buf {
		buf[i] = guard
	}
	off := pad + skew
	s = buf[off : off+n : off+n]
	return s, func() bool {
		for i, v := range buf {
			if (i < off || i >= off+n) && v != guard {
				return false
			}
		}
		return true
	}
}

// kernelCase is one table, one batch and the gradients of a test shape. The
// table and the forward output sit between guard elements; out is unaligned.
type kernelCase struct {
	m, e, n   int
	w0        []float32 // initial table
	b         *Batch
	dOut, dW  []float32
	wIntact   func() bool
	outIntact func() bool
	tab       *Table
	out       []float32
}

// newKernelCase draws n bags of at most maxBag lookups (a mix of empty bags,
// bags of exactly maxBag, repeated rows, and rows 0 and m-1).
func newKernelCase(rng *rand.Rand, m, e, n, maxBag int) *kernelCase {
	c := &kernelCase{m: m, e: e, n: n}
	c.b = &Batch{Offsets: make([]int32, n+1)}
	for bag := 0; bag < n; bag++ {
		size := maxBag
		switch bag % 4 {
		case 1:
			size = 0
		case 2:
			size = rng.Intn(maxBag + 1)
		}
		for s := 0; s < size; s++ {
			var ix int32
			switch rng.Intn(6) {
			case 0:
				ix = 0
			case 1:
				ix = int32(m - 1)
			case 2:
				if s > 0 {
					ix = c.b.Indices[len(c.b.Indices)-1] // duplicate
					break
				}
				fallthrough
			default:
				ix = int32(rng.Intn(m))
			}
			c.b.Indices = append(c.b.Indices, ix)
		}
		c.b.Offsets[bag+1] = int32(len(c.b.Indices))
	}
	c.w0 = randRow(rng, m*e)
	c.dOut = randRow(rng, n*e)
	c.dW = randRow(rng, len(c.b.Indices)*e)
	var w []float32
	w, c.wIntact = guarded(m*e, 0)
	c.out, c.outIntact = guarded(n*e, 1)
	c.tab = &Table{M: m, E: e, W: w}
	return c
}

func randRow(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// run resets the table and applies op, returning copies of the forward
// output and the table.
func (c *kernelCase) run(p *par.Pool, op string) (out, w []float32) {
	copy(c.tab.W, c.w0)
	for i := range c.out {
		c.out[i] = 99
	}
	const lr = float32(0.37)
	switch op {
	case "forward":
		c.tab.Forward(p, c.b, c.out)
	case "fused":
		c.tab.FusedBackwardUpdate(p, c.b, c.dOut, lr)
	case "racefree":
		c.tab.Update(p, RaceFree, c.b, c.dW, lr)
	case "rtm": // lookup order is fixed only on one worker
		c.tab.Update(p, RTMStyle, c.b, c.dW, lr)
	}
	return slices.Clone(c.out), slices.Clone(c.tab.W)
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestVectorKernelsMatchGoOracle holds every vector kernel to the Go bodies
// bit for bit — forward, fused update, race-free and (one worker) RTM update
// — over the row widths the vector code cuts into different panels and bag
// sizes from empty to 100, on one and three workers. Each ISA equals the
// oracle, so AVX2 and AVX-512 equal each other.
func TestVectorKernelsMatchGoOracle(t *testing.T) {
	pools := map[int]*par.Pool{1: par.NewPool(1), 3: par.NewPool(3)}
	eachVectorKernel(t, func(t *testing.T) {
		k := kernel
		rng := rand.New(rand.NewSource(11))
		for _, e := range []int{16, 32, 48, 64, 128, 256} {
			for _, maxBag := range []int{0, 1, 2, 7, 50, 100} {
				c := newKernelCase(rng, 37, e, 9, maxBag)
				for _, workers := range []int{1, 3} {
					for _, op := range []string{"forward", "fused", "racefree", "rtm"} {
						if op == "rtm" && workers != 1 {
							continue
						}
						var wantOut, wantW []float32
						withKernel(t, nil, func() { wantOut, wantW = c.run(pools[workers], op) })
						withKernel(t, k, func() {
							gotOut, gotW := c.run(pools[workers], op)
							name := fmt.Sprintf("E=%d bag<=%d workers=%d %s", e, maxBag, workers, op)
							if i := sameBits(gotOut, wantOut); i >= 0 {
								t.Fatalf("%s: out[%d] = %v, oracle %v", name, i, gotOut[i], wantOut[i])
							}
							if i := sameBits(gotW, wantW); i >= 0 {
								t.Fatalf("%s: W[%d] = %v, oracle %v", name, i, gotW[i], wantW[i])
							}
							if !c.wIntact() || !c.outIntact() {
								t.Fatalf("%s: wrote outside W or out", name)
							}
						})
					}
				}
			}
		}
	})
}

// TestBadIndexPanicsOrIsSkipped corrupts one index per position class — first,
// middle and last of a bag, and the batch's very last — with a negative and a
// too large row. Forward and the RTM update must panic, the race-free scans
// (fused, RaceFree) must skip the lookup, and nothing outside W and out may
// be written — on the Go bodies and on every vector kernel alike.
func TestBadIndexPanicsOrIsSkipped(t *testing.T) {
	one, three := par.NewPool(1), par.NewPool(3)
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, k := range everyKernel {
		withKernel(t, k, func() {
			rng := rand.New(rand.NewSource(12))
			c := newKernelCase(rng, 20, 64, 8, 5)
			b := c.b
			last := len(b.Indices) - 1
			bag := 4 // a full bag of 5
			first := int(b.Offsets[bag])
			for _, pos := range []int{first, first + 2, first + 4, last} {
				for _, bad := range []int32{-1, int32(c.m), math.MinInt32, math.MaxInt32} {
					good := b.Indices[pos]
					b.Indices[pos] = bad
					for _, op := range []string{"forward", "rtm"} {
						if !panics(func() { c.run(one, op) }) {
							t.Errorf("%s kernel, %s: index %d at %d did not panic", KernelISA(), op, bad, pos)
						}
					}
					for _, op := range []string{"fused", "racefree"} {
						_, got := c.run(three, op)
						// The oracle for "skipped": the Go body on the same batch.
						var want []float32
						withKernel(t, nil, func() { _, want = c.run(one, op) })
						if i := sameBits(got, want); i >= 0 {
							t.Errorf("%s kernel, %s: index %d at %d: W[%d] differs from the skipping scan", KernelISA(), op, bad, pos, i)
						}
					}
					if !c.wIntact() || !c.outIntact() {
						t.Fatalf("%s kernel: index %d at %d: wrote outside W or out", KernelISA(), bad, pos)
					}
					b.Indices[pos] = good
				}
			}
		})
	}
}

// TestShortExtentsPanicBeforeTheKernel: a table (with its last row looked
// up), output or gradient too short for the shape panics in Go, with nothing
// outside the slices written.
func TestShortExtentsPanicBeforeTheKernel(t *testing.T) {
	one := par.NewPool(1)
	for _, k := range everyKernel {
		withKernel(t, k, func() {
			c := newKernelCase(rand.New(rand.NewSource(13)), 20, 64, 8, 5)
			c.b.Indices[0] = int32(c.m - 1)
			short := func(s []float32) []float32 { return s[: len(s)-1 : len(s)-1] }
			cases := map[string]func(){
				"short W forward":   func() { c.tab.W = short(c.tab.W); c.tab.Forward(one, c.b, c.out) },
				"short W fused":     func() { c.tab.W = short(c.tab.W); c.tab.FusedBackwardUpdate(one, c.b, c.dOut, 1) },
				"short out":         func() { c.tab.Forward(one, c.b, short(c.out)) },
				"short dOut":        func() { c.tab.FusedBackwardUpdate(one, c.b, short(c.dOut), 1) },
				"short dW":          func() { c.tab.Update(one, RaceFree, c.b, short(c.dW), 1) },
				"short x UpdateRow": func() { UpdateRow(c.tab.Row(0), short(c.dOut[:c.e]), 1) },
			}
			for name, f := range cases {
				w := c.tab.W
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s kernel, %s: no panic", KernelISA(), name)
						}
					}()
					f()
				}()
				c.tab.W = w
				if !c.wIntact() || !c.outIntact() {
					t.Fatalf("%s kernel, %s: wrote outside W or out", KernelISA(), name)
				}
			}
		})
	}
}

// TestUpdateIsTwoRoundings pins one updated row to constants computed with
// the product rounded to float32 before the subtraction. A fused multiply-add
// (which a compiler may emit for row[i] -= lr*x[i] without the explicit
// conversion: arm64, GOAMD64=v3) rounds once and gives different bits in the
// elements chosen here.
func TestUpdateIsTwoRoundings(t *testing.T) {
	const lr = float32(0.1)
	bitsOf := func(b ...uint32) []float32 {
		f := make([]float32, len(b))
		for i, v := range b {
			f[i] = math.Float32frombits(v)
		}
		return f
	}
	row0 := bitsOf(0x3a83126f, 0x3f00bcd3, 0x3dbde686, 0x3f5b44c2) // 0.001, 0.5029, 0.0927, 0.8565
	x := bitsOf(0x40400000, 0xbfde7300, 0x3f770aba, 0x3fd79a3f)    // 3, -1.738, 0.965, 1.684
	// float32(row - float32(lr·x)), computed outside Go; a single rounding
	// gives …87, …39, …13, …e9.
	want := []uint32{0xbe991688, 0x3f2d3a3a, 0xbb777520, 0x3f3025e8}
	fused := 0
	for i := range row0 {
		two := row0[i] - float32(lr*x[i])
		one := float32(float64(row0[i]) - float64(lr)*float64(x[i])) // what an FMA returns
		if math.Float32bits(two) != want[i] {
			t.Fatalf("element %d: the two-rounding constant is wrong: %#x vs %#x", i, math.Float32bits(two), want[i])
		}
		if one != two {
			fused++
		}
	}
	if fused != len(row0) {
		t.Fatalf("only %d of %d elements tell one rounding from two", fused, len(row0))
	}
	for _, k := range everyKernel {
		withKernel(t, k, func() {
			// Both the short Go row and a full vector row (the four values repeated).
			for _, reps := range []int{1, 4} {
				row, xs := slices.Repeat(row0, reps), slices.Repeat(x, reps)
				UpdateRow(row, xs, lr)
				for i, v := range row {
					if math.Float32bits(v) != want[i%4] {
						t.Errorf("%s kernel, %d elements: row[%d] = %#x, two roundings give %#x", KernelISA(), len(row), i, math.Float32bits(v), want[i%4])
					}
				}
			}
		})
	}
}

// TestUpdateRowMinusOneIsAdd: the store's y += row is UpdateRow(y, row, -1).
func TestUpdateRowMinusOneIsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range everyKernel {
		withKernel(t, k, func() {
			for _, e := range []int{5, 16, 64} {
				y, row := randRow(rng, e), randRow(rng, e)
				y[0], row[0] = 0, float32(math.Copysign(0, -1)) // +0 + -0 = +0
				want := make([]float32, e)
				for i := range want {
					want[i] = y[i] + row[i]
				}
				UpdateRow(y, row, -1)
				if i := sameBits(y, want); i >= 0 {
					t.Errorf("%s kernel, E=%d: element %d: %v, y+row = %v", KernelISA(), e, i, y[i], want[i])
				}
			}
		})
	}
}

// BenchmarkKernels times the forward and the fused update at the train-emb
// table shape (250 000 × 64, N = 2048, P = 50, Zipf 1.05) on each kernel
// this machine has and on the Go bodies, in ns per looked-up row; and the
// generator's head-score gather (GatherSlots bag by bag over the same rows
// into a 65 536-slot head).
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tab := NewTable(250_000, 64, rng, 0.01)
	batches := make([]*Batch, 4)
	for i := range batches {
		batches[i] = MakeBatch(rng, Zipf{S: 1.05}, 2048, 50, tab.M)
	}
	out := randRow(rng, 2048*64)
	head := make([]atomic.Uint64, 1<<16)
	for i := range head {
		head[i].Store(rng.Uint64())
	}
	bits := make([]uint64, 50)
	for _, k := range everyKernel {
		name := "go"
		if k != nil {
			name = k.isa
		}
		runs := []struct {
			op  string
			run func(*Batch)
		}{
			{"forward", func(bt *Batch) { tab.Forward(par.Default, bt, out) }},
			{"fused", func(bt *Batch) { tab.FusedBackwardUpdate(par.Default, bt, out, 1e-6) }},
			{"gather", func(bt *Batch) {
				for j := 0; j+1 < len(bt.Offsets); j++ {
					GatherSlots(bits, head, bt.Indices[bt.Offsets[j]:bt.Offsets[j+1]])
				}
			}},
		}
		for _, r := range runs {
			b.Run(name+"/"+r.op, func(b *testing.B) {
				withKernel(b, k, func() {
					for i := 0; i < b.N; i++ {
						r.run(batches[i%len(batches)])
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2048*50), "ns/row")
			})
		}
	}
}
