package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(3, 4)
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	if got := d.Row(1)[2]; got != 5 {
		t.Fatal("Row aliasing broken")
	}
	d.Fill(2)
	for _, v := range d.Data {
		if v != 2 {
			t.Fatal("Fill failed")
		}
	}
	d.Zero()
	if d.At(0, 0) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 1)
	c := d.Clone()
	c.Set(0, 0, 9)
	if d.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestDenseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(5, 7)
	d.Randomize(rng, 1)
	tr := d.Transpose()
	for r := 0; r < 5; r++ {
		for c := 0; c < 7; c++ {
			if d.At(r, c) != tr.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
	back := tr.Transpose()
	if MaxAbsDiff(d, back) != 0 {
		t.Fatal("double transpose must be identity")
	}
}

func TestAllClose(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	a.Fill(1)
	b.Fill(1.0000001)
	if !AllClose(a, b, 1e-5, 1e-5) {
		t.Fatal("near-equal matrices reported different")
	}
	b.Fill(2)
	if AllClose(a, b, 1e-5, 1e-5) {
		t.Fatal("different matrices reported close")
	}
	c := NewDense(2, 3)
	if AllClose(a, c, 1, 1) {
		t.Fatal("shape mismatch must not be close")
	}
}

func TestActsPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ n, c, bn, bc int }{
		{8, 8, 2, 4}, {16, 32, 16, 8}, {64, 64, 8, 16}, {4, 4, 4, 4},
	} {
		d := NewDense(tc.n, tc.c)
		d.Randomize(rng, 1)
		a := PackActs(d, tc.bn, tc.bc)
		back := a.Unpack()
		if MaxAbsDiff(d, back) != 0 {
			t.Fatalf("round trip failed for %+v", tc)
		}
	}
}

func TestActsAtMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(12, 20)
	d.Randomize(rng, 1)
	a := PackActs(d, 4, 5)
	for n := 0; n < 12; n++ {
		for c := 0; c < 20; c++ {
			if a.At(n, c) != d.At(n, c) {
				t.Fatalf("Acts.At(%d,%d) mismatch", n, c)
			}
		}
	}
	a.Set(3, 7, 42)
	if a.At(3, 7) != 42 {
		t.Fatal("Acts.Set failed")
	}
}

func TestActsBlockLayout(t *testing.T) {
	// Element (n, c) must live in block (c/bc, n/bn) at (n%bn)*bc + c%bc.
	a := NewActs(8, 8, 4, 2)
	a.Set(5, 3, 1)
	blk := a.Block(1, 1) // cb=3/2=1, nb=5/4=1
	if blk[(5%4)*2+(3%2)] != 1 {
		t.Fatal("blocked layout formula violated")
	}
}

func TestWeightsPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ k, c, bk, bc int }{
		{8, 8, 4, 2}, {32, 16, 16, 8}, {64, 64, 16, 16},
	} {
		d := NewDense(tc.k, tc.c)
		d.Randomize(rng, 1)
		w := PackWeights(d, tc.bk, tc.bc)
		back := w.Unpack()
		if MaxAbsDiff(d, back) != 0 {
			t.Fatalf("round trip failed for %+v", tc)
		}
	}
}

func TestWeightsBlockLayout(t *testing.T) {
	// Element (k, c) lives in block (k/bk, c/bc) at (c%bc)*bk + k%bk.
	w := NewWeights(8, 8, 4, 2)
	w.Set(6, 5, 1)
	blk := w.Block(1, 2)
	if blk[(5%2)*4+(6%4)] != 1 {
		t.Fatal("weight block layout formula violated")
	}
}

func TestWeightsTransposeBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Block heights with and without a remainder against the 4-row
	// sub-tiles, down to the degenerate bc = 1 of prime feature counts.
	for _, tc := range []struct{ k, c, bk, bc int }{
		{16, 24, 8, 4}, {100, 26, 50, 13}, {64, 7, 64, 1}, {3, 128, 1, 64}, {12, 18, 6, 6},
	} {
		d := NewDense(tc.k, tc.c)
		d.Randomize(rng, 1)
		w := PackWeights(d, tc.bk, tc.bc)
		wt := w.TransposeBlocked()
		if wt.K != tc.c || wt.C != tc.k || wt.BK != tc.bc || wt.BC != tc.bk {
			t.Fatalf("transposed dims wrong: %+v", wt)
		}
		// The same transpose done in two block ranges, as a parallel
		// caller splits it.
		parts := NewWeights(tc.c, tc.k, tc.bc, tc.bk)
		mid := w.Kb * w.Cb / 2
		w.TransposeBlocksInto(parts, mid, w.Kb*w.Cb)
		w.TransposeBlocksInto(parts, 0, mid)
		for k := 0; k < tc.k; k++ {
			for c := 0; c < tc.c; c++ {
				if w.At(k, c) != wt.At(c, k) || w.At(k, c) != parts.At(c, k) {
					t.Fatalf("%+v: transpose mismatch at (%d,%d)", tc, k, c)
				}
			}
		}
	}
}

func BenchmarkTransposeBlocked1024(b *testing.B) {
	w := NewWeights(1024, 1024, 64, 64)
	wt := NewWeights(1024, 1024, 64, 64)
	for i := range w.Data {
		w.Data[i] = float32(i)
	}
	b.SetBytes(int64(8 * len(w.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TransposeBlockedInto(wt)
	}
}

func TestBlockedRoundTripProperty(t *testing.T) {
	// Property: pack/unpack is the identity for any matrix whose dims are
	// multiples of the block sizes.
	prop := func(seed int64, nbIdx, cbIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bns := []int{2, 4, 8}
		bcs := []int{2, 4, 8}
		bn := bns[int(nbIdx)%len(bns)]
		bc := bcs[int(cbIdx)%len(bcs)]
		n := bn * (1 + rng.Intn(4))
		c := bc * (1 + rng.Intn(4))
		d := NewDense(n, c)
		d.Randomize(rng, 10)
		if MaxAbsDiff(d, PackActs(d, bn, bc).Unpack()) != 0 {
			return false
		}
		return MaxAbsDiff(d, PackWeights(d, bn, bc).Unpack()) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadBlockingPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewActs(10, 8, 4, 4) },   // N not divisible
		func() { NewActs(8, 10, 4, 4) },   // C not divisible
		func() { NewWeights(8, 8, 0, 4) }, // zero block
		func() { NewDense(-1, 3) },        // negative dims
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestEnsureActsCapacityReuse pins the serving-tier contract: once a
// workspace tensor has been sized for the largest batch, alternating
// through smaller batch shapes reshapes in place — same backing array, no
// allocation — and the reshaped tensor is correct after a full overwrite.
func TestEnsureActsCapacityReuse(t *testing.T) {
	var buf *Acts
	big := EnsureActs(&buf, 32, 16, 4, 4)
	bigData := &big.Data[0]
	for _, n := range []int{4, 16, 8, 32, 12} {
		a := EnsureActs(&buf, n, 16, 4, 4)
		if a != big || &a.Data[0] != bigData {
			t.Fatalf("EnsureActs(n=%d) reallocated despite sufficient capacity", n)
		}
		if a.N != n || a.Nb != n/4 || len(a.Data) != n*16 {
			t.Fatalf("EnsureActs(n=%d) bad reshape: N=%d Nb=%d len=%d", n, a.N, a.Nb, len(a.Data))
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		EnsureActs(&buf, 8, 16, 4, 4)
		EnsureActs(&buf, 32, 16, 4, 4)
	})
	if allocs != 0 {
		t.Fatalf("EnsureActs alternating shapes: %v allocs, want 0", allocs)
	}
	// A reshape past capacity still allocates (and the old data survives
	// elsewhere untouched).
	grown := EnsureActs(&buf, 64, 16, 4, 4)
	if grown == big {
		t.Fatal("EnsureActs must allocate when capacity is exceeded")
	}
	// Round-trip correctness through a reshaped tensor.
	rng := rand.New(rand.NewSource(3))
	d := NewDense(12, 16)
	d.Randomize(rng, 5)
	a := EnsureActs(&buf, 12, 16, 4, 4)
	a.PackFrom(d)
	if MaxAbsDiff(d, a.Unpack()) != 0 {
		t.Fatal("reshaped Acts round-trip diverges")
	}
}

// TestPackUnpackNarrowerDense: a dense matrix narrower than the blocked
// tensor by less than one block packs with the missing columns written as
// zeros — over whatever a reshaped workspace held — and unpacks with them
// dropped; a whole missing block, or a wider matrix, still panics.
func TestPackUnpackNarrowerDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(8, 21)
	d.Randomize(rng, 5)
	a := NewActs(8, 24, 4, 8)
	for i := range a.Data {
		a.Data[i] = 7 // stale contents
	}
	a.PackFrom(d)
	for n := 0; n < 8; n++ {
		for c := 0; c < 24; c++ {
			var want float32
			if c < 21 {
				want = d.At(n, c)
			}
			if got := a.At(n, c); got != want {
				t.Fatalf("packed (%d,%d) = %g, want %g", n, c, got, want)
			}
		}
	}
	back := NewDense(8, 21)
	a.UnpackInto(back)
	if MaxAbsDiff(d, back) != 0 {
		t.Fatal("narrower round-trip diverges")
	}
	for _, cols := range []int{16, 15, 25} {
		bad := NewDense(8, cols)
		for name, fn := range map[string]func(){"PackFrom": func() { a.PackFrom(bad) }, "UnpackInto": func() { a.UnpackInto(bad) }} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s with %d columns against 24 in blocks of 8: expected panic", name, cols)
					}
				}()
				fn()
			}()
		}
	}
}
