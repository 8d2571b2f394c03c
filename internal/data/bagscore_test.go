package data

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/embedding"
	"repro/internal/rng"
)

// scoreRows returns n rows of a table of headRows + 100 rows, picked by the
// stream seeded with seed: rows inside the cached head, the rows either
// side of its end, rows past it, and negative rows (which no dataset draws,
// but which a gather must mask off as latent's unsigned compare does).
func scoreRows(n int, seed uint64) []int32 {
	g := rng.Stream(seed)
	rows := make([]int32, n)
	for i := range rows {
		r := g.Next()
		switch r & 7 {
		case 0:
			rows[i] = headRows - 2 + int32(r>>8)%4
		case 1:
			rows[i] = headRows + int32(r>>8)%100
		case 2:
			rows[i] = -1 - int32(r>>8)%3
		case 3:
			rows[i] = math.MinInt32
		default:
			rows[i] = int32(r>>8) % 64 // hot rows, repeated within a bag
		}
	}
	return rows
}

// checkBagScore holds bagScore to the scalar latent sum, bit for bit, over
// rows, with the head slots cold except for every warm-th row (0: all
// cold), which a fill has already cached. bagScore runs on the kernel the
// process detected; embedding's TestGatherSlots holds the gather to its
// contract on every kernel.
func checkBagScore(t *testing.T, rows []int32, warm int) {
	t.Helper()
	build := func() *teacher { return NewClickLog(3, 0, []int{headRows + 100}, 1).teacher() }
	var want float64
	ref := build()
	for _, r := range rows {
		want += ref.unitScore(0, r) * ref.signal
	}
	tch := build()
	if warm > 0 {
		for i := 0; i < len(rows); i += warm {
			tch.latent(0, rows[i])
		}
	}
	if got := tch.bagScore(0, rows); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s warm=%d, %d rows: bagScore %v, latent sum %v", embedding.KernelISA(), warm, len(rows), got, want)
	}
}

// TestBagScoreEqualsLatentSum runs checkBagScore at bag lengths from under
// one vector to several chunks, cold, partly warm and warm.
func TestBagScoreEqualsLatentSum(t *testing.T) {
	for i, n := range []int{1, 7, 8, 13, 50, 64, 65, 130} {
		for _, warm := range []int{0, 3, 1} {
			t.Run(fmt.Sprintf("n=%d,warm=%d", n, warm), func(t *testing.T) {
				checkBagScore(t, scoreRows(n, uint64(i)), warm)
			})
		}
	}
}

// FuzzBagScoreVsLatent is TestBagScoreEqualsLatentSum at random: a bag of
// 1..130 rows from the seed, every warm-th row (0..4) cached first.
func FuzzBagScoreVsLatent(f *testing.F) {
	f.Add(uint8(50), uint64(1), uint8(0))
	f.Add(uint8(13), uint64(2), uint8(2))
	f.Add(uint8(130), uint64(3), uint8(1))
	f.Fuzz(func(t *testing.T, nn uint8, seed uint64, warm uint8) {
		checkBagScore(t, scoreRows(1+int(nn%130), seed), int(warm%5))
	})
}
