package rng

import "testing"

// TestStreamIsSplitMix64 pins the generator to the published splitmix64
// outputs from state 0, and Key, Mix and Float64 to their definitions: every
// dataset, churn schedule and arrival stream in the repo is
// derived from these, so a change here changes all of them.
func TestStreamIsSplitMix64(t *testing.T) {
	var g Stream
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC, 0x1B39896A51A8749B} {
		if got := g.Next(); got != want {
			t.Fatalf("output %d from state 0: %#x, want %#x", i, got, want)
		}
	}
	if got, want := Mix(0), uint64(0xE220A8397B1DCDAF); got != want {
		t.Errorf("Mix(0) = %#x, want %#x", got, want)
	}
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for c := uint64(0); c < 4; c++ {
			k := Stream(seed).Key(c * Spread1)
			want := Stream(seed ^ c*Spread1 + 0x9E3779B97F4A7C15)
			if k != want {
				t.Errorf("Key: state %#x, want %#x", uint64(k), uint64(want))
			}
			f, h := k, k
			if got, want := f.Float64(), float64(h.Next()>>11)/(1<<53); got != want || got < 0 || got >= 1 {
				t.Errorf("Float64 = %v, want %v in [0, 1)", got, want)
			}
		}
	}
}
