package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// withKernel runs f with the dispatch variable pinned to k (nil = Go kernel).
func withKernel(t testing.TB, k *microKernel, f func()) {
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

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// pass is one of the three GEMM passes as a batchReduce call shape over
// tiles of bn samples × bc inputs × bk outputs: m rows of w outputs reduced
// over r, with the B strides and the A / B tile lengths.
type pass struct {
	name string
	dims func(bn, bc, bk int) (m, r, w, sbm, sbr, aLen, bLen int)
}

var passes = []pass{
	{"fwd", func(bn, bc, bk int) (m, r, w, sbm, sbr, aLen, bLen int) {
		return bn, bc, bk, bc, 1, bc * bk, bn * bc
	}},
	// Backward-by-data is the forward call on transposed weights: the
	// roles of bc and bk swap.
	{"bwd_data", func(bn, bc, bk int) (m, r, w, sbm, sbr, aLen, bLen int) {
		return bn, bk, bc, bk, 1, bk * bc, bn * bk
	}},
	{"bwd_weights", func(bn, bc, bk int) (m, r, w, sbm, sbr, aLen, bLen int) {
		return bc, bn, bk, 1, bc, bn * bk, bn * bc
	}},
}

// TestVectorKernelMatchesGoOracle is the randomized property test of the
// kernel family: every row remainder, reduction length, full / masked
// column panel, tile count and zeroOut setting, in all three passes,
// against the Go kernel within FMA rounding.
func TestVectorKernelMatchesGoOracle(t *testing.T) {
	eachVectorKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		cases := 0
		for _, ps := range passes {
			for _, bn := range []int{1, 2, 3, 4, 5, 7, 16} {
				for _, bc := range []int{1, 13, 50, 64} {
					for _, bk := range []int{1, 8, 13, 32, 50, 64} {
						nt := rng.Intn(4)
						zero := rng.Intn(2) == 0
						m, r, w, sbm, sbr, aLen, bLen := ps.dims(bn, bc, bk)
						as, bs := make([][]float32, nt), make([][]float32, nt)
						for i := range as {
							as[i], bs[i] = randSlice(rng, aLen), randSlice(rng, bLen)
						}
						// Two guard rows after the output catch a store
						// past the tile.
						got := randSlice(rng, (m+2)*w)
						want := append([]float32(nil), got...)
						batchReduce(as, bs, got[:m*w], m, r, w, sbm, sbr, zero)
						batchReduceGo(as, bs, want[:m*w], m, r, w, sbm, sbr, zero)
						tol := 1e-5 * float64(nt*r+1)
						for i := range want {
							if d := math.Abs(float64(got[i] - want[i])); d > tol || (i >= m*w && d != 0) {
								t.Fatalf("%s bn=%d bc=%d bk=%d nt=%d zero=%v: out[%d]=%g want %g",
									ps.name, bn, bc, bk, nt, zero, i, got[i], want[i])
							}
						}
						cases++
					}
				}
			}
		}
		t.Logf("%d shapes", cases)
	})
}

// logicalForward runs Forward on the logical problem blocked at bn and
// returns the row-major result.
func logicalForward(p *par.Pool, xD, wD *tensor.Dense, bn, bc, bk int) *tensor.Dense {
	y := tensor.NewActs(xD.Rows, wD.Rows, bn, bk)
	Forward(p, tensor.PackWeights(wD, bk, bc), tensor.PackActs(xD, bn, bc), y)
	return y.Unpack()
}

func bitEqual(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestOneReductionOrder pins the contract serving parity rests on: the same
// logical GEMM is bit-identical at bn = 1 and bn = 16 (1-row vs 4-row
// tiles, regrouped vs native blocks), at a batch of one sample, with a
// masked column tail — and between the AVX2 and AVX-512 kernels.
func TestOneReductionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pool := par.NewPool(2)
	n, c, k, bc, bk := 48, 100, 150, 50, 50
	xD, wD := randDense(rng, n, c), randDense(rng, k, c)
	var perISA [][]float32
	eachVectorKernel(t, func(t *testing.T) {
		ref := logicalForward(pool, xD, wD, 16, bc, bk)
		for _, bn := range []int{1, 2, 3, 6, 48} {
			got := logicalForward(pool, xD, wD, bn, bc, bk)
			if i := bitEqual(got.Data, ref.Data); i >= 0 {
				t.Fatalf("bn=%d differs from bn=16 at %d: %g vs %g", bn, i, got.Data[i], ref.Data[i])
			}
		}
		// One request alone equals its row in the batch.
		x1 := tensor.NewDense(1, c)
		copy(x1.Data, xD.Row(17))
		one := logicalForward(pool, x1, wD, 1, bc, bk)
		if i := bitEqual(one.Data, ref.Row(17)); i >= 0 {
			t.Fatalf("single sample differs from its row in the batch at column %d", i)
		}
		perISA = append(perISA, ref.Data)
	})
	if len(perISA) < 2 {
		t.Skip("one vector ISA on this machine: nothing to compare across")
	}
	if i := bitEqual(perISA[0], perISA[1]); i >= 0 {
		t.Fatalf("%s and %s differ at %d", kernels[0].isa, kernels[1].isa, i)
	}
}

// TestBackwardWeightsIndependentOfBN: the reduction over samples runs in
// sample order whatever bn tiles them.
func TestBackwardWeightsIndependentOfBN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := par.NewPool(2)
	n, c, k, bc, bk := 48, 26, 100, 13, 50
	dyD, xD := randDense(rng, n, k), randDense(rng, n, c)
	run := func(bn int) []float32 {
		dw := tensor.NewWeights(k, c, bk, bc)
		BackwardWeights(pool, tensor.PackActs(dyD, bn, bk), tensor.PackActs(xD, bn, bc), dw)
		return dw.Data
	}
	eachVectorKernel(t, func(t *testing.T) {
		ref := run(16)
		for _, bn := range []int{1, 3, 48} {
			if i := bitEqual(run(bn), ref); i >= 0 {
				t.Fatalf("bn=%d differs from bn=16 at %d", bn, i)
			}
		}
	})
}

// TestAccumulateContinuesTheChain: a batch split into a zeroing call and an
// accumulating one equals the single call bit for bit.
func TestAccumulateContinuesTheChain(t *testing.T) {
	eachVectorKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		bn, bc, bk, nt := 5, 13, 50, 4
		as, bs := make([][]float32, nt), make([][]float32, nt)
		for i := range as {
			as[i], bs[i] = randSlice(rng, bc*bk), randSlice(rng, bn*bc)
		}
		one, two := make([]float32, bn*bk), make([]float32, bn*bk)
		BatchReduceKernel(as, bs, one, bn, bc, bk, true)
		BatchReduceKernel(as[:1], bs[:1], two, bn, bc, bk, true)
		BatchReduceKernel(as[1:], bs[1:], two, bn, bc, bk, false)
		if i := bitEqual(one, two); i >= 0 {
			t.Fatalf("split batch differs at %d", i)
		}
	})
}

// addOne is a test epilogue with an observable, exactly reproducible effect.
type addOne struct{ bias []float32 }

func (e addOne) Apply(kb int, blk []float32, rows int) {
	bk := len(blk) / rows
	for i := range blk {
		blk[i] = blk[i] + e.bias[kb*bk+i%bk]
	}
}

// TestFusedEpilogueEqualsSweep: ForwardFused == Forward followed by the
// same epilogue over every block, bit for bit, on every kernel.
func TestFusedEpilogueEqualsSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool := par.NewPool(2)
	n, c, k, bn, bc, bk := 24, 64, 100, 8, 32, 50
	x := tensor.PackActs(randDense(rng, n, c), bn, bc)
	w := tensor.PackWeights(randDense(rng, k, c), bk, bc)
	ep := addOne{bias: randSlice(rng, k)}
	check := func(t *testing.T) {
		fused, plain := tensor.NewActs(n, k, bn, bk), tensor.NewActs(n, k, bn, bk)
		ForwardFused(pool, w, x, fused, ep)
		Forward(pool, w, x, plain)
		for kb := 0; kb < plain.Cb; kb++ {
			for nb := 0; nb < plain.Nb; nb++ {
				ep.Apply(kb, plain.Block(kb, nb), bn)
			}
		}
		if i := bitEqual(fused.Data, plain.Data); i >= 0 {
			t.Fatalf("fused differs from sweep at %d", i)
		}
	}
	t.Run("go", func(t *testing.T) { withKernel(t, nil, func() { check(t) }) })
	for _, kr := range kernels {
		t.Run(kr.isa, func(t *testing.T) { withKernel(t, kr, func() { check(t) }) })
	}
}

// TestShortSlicesPanicBeforeTheKernel: a tile or output shorter than (bn,
// bc, bk) demands must panic in the Go wrapper. The short slice is the tail
// of its allocation, so an out-of-bounds vector access would be real.
func TestShortSlicesPanicBeforeTheKernel(t *testing.T) {
	bn, bc, bk := 4, 8, 16
	full := func() ([][]float32, [][]float32, []float32) {
		return [][]float32{make([]float32, bc*bk), make([]float32, bc*bk)},
			[][]float32{make([]float32, bn*bc), make([]float32, bn*bc)},
			make([]float32, bn*bk)
	}
	type args struct {
		a, b [][]float32
		out  []float32
	}
	for _, tc := range []struct {
		name   string
		mutate func(*args)
	}{
		{"short A tile", func(g *args) { g.a[1] = g.a[1][1:] }},
		{"short B tile", func(g *args) { g.b[1] = g.b[1][1:] }},
		{"short output", func(g *args) { g.out = g.out[1:] }},
		{"fewer B tiles", func(g *args) { g.b = g.b[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g args
			g.a, g.b, g.out = full()
			tc.mutate(&g)
			defer func() {
				r := recover()
				err, ok := r.(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("recovered %v, want an index-out-of-range runtime error", r)
				}
				for _, v := range g.out {
					if v != 0 {
						t.Fatal("output written before the panic")
					}
				}
			}()
			BatchReduceKernel(g.a, g.b, g.out, bn, bc, bk, false)
		})
	}
}

// TestDetectionAgreesWithProcCPUInfo compares CPUID + XGETBV detection with
// the kernel's own view of the CPU, where /proc/cpuinfo exists.
func TestDetectionAgreesWithProcCPUInfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || runtime.GOARCH != "amd64" {
		t.Skip("no /proc/cpuinfo on amd64 here")
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := "go"
	if flags["avx2"] && flags["fma"] {
		want = "avx2"
		if flags["avx512f"] {
			want = "avx512"
		}
	}
	if got := KernelISA(); got != want {
		t.Fatalf("KernelISA() = %q, /proc/cpuinfo flags say %q", got, want)
	}
	if want != "go" && (len(kernels) == 0 || kernels[len(kernels)-1].isa != "avx2") {
		t.Fatalf("kernels = %v: the AVX2 kernel must be available wherever a vector kernel is", kernels)
	}
}

// BenchmarkKernels times Forward (training's bn = 16, serving's bn = 1) and
// BackwardWeights at the paper's large layer shape on each kernel this
// machine has and on the Go oracle, in GFLOP/s.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, ck := 128, 1024
	w := tensor.PackWeights(randDense(rng, ck, ck), 64, 64)
	dw := tensor.NewWeights(ck, ck, 64, 64)
	for _, k := range append([]*microKernel{nil}, kernels...) {
		name := "go"
		if k != nil {
			name = k.isa
		}
		for _, bn := range []int{16, 1} {
			x := tensor.PackActs(randDense(rng, n, ck), bn, 64)
			y := tensor.NewActs(n, ck, bn, 64)
			runs := []struct {
				pass string
				run  func()
			}{
				{"fwd", func() { Forward(par.Default, w, x, y) }},
				{"bwd_weights", func() { BackwardWeights(par.Default, y, x, dw) }},
			}
			for _, r := range runs {
				b.Run(fmt.Sprintf("%s/%s/bn%d", name, r.pass, bn), func(b *testing.B) {
					withKernel(b, k, func() {
						for i := 0; i < b.N; i++ {
							r.run()
						}
					})
					b.ReportMetric(2*float64(n)*float64(ck)*float64(ck)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
				})
			}
		}
	}
}
