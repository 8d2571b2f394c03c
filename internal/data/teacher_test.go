package data

import (
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentFirstFills: rank goroutines and serving replicas share one
// dataset, so its first fills — which build the generator and start filling
// the head-score cache and the request log's profile head — race with each
// other. Every goroutine must read the batches a fresh dataset gives a lone
// reader (run under -race in CI). In "RequestLog/hot" every request belongs
// to one of 16 entities, so all eight goroutines race to build the same
// profiles.
func TestConcurrentFirstFills(t *testing.T) {
	rows := []int{1, 3, 500, 70_000} // the last is longer than the cached head
	builds := map[string]func() Dataset{
		"ClickLog":   func() Dataset { return NewClickLog(4, 3, rows, 4) },
		"RequestLog": func() Dataset { return NewRequestLog(4, 3, rows, 4) },
		// Bags of 50 run the bag path: DrawBag and the score gather.
		"ClickLog/P50": func() Dataset { return NewClickLog(4, 3, rows, 50) },
		"RequestLog/hot": func() Dataset {
			r := NewRequestLog(4, 3, rows, 4)
			r.Universe = 16
			return r
		},
	}
	for name, build := range builds {
		const n, batches = 64, 3
		want := make([]*MiniBatch, batches)
		lone := build()
		for i := range want {
			want[i] = lone.Batch(i, n)
		}
		shared := build()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mb := &MiniBatch{}
				for i := range want {
					shared.FillRange(i, n, 0, n, mb)
					if !reflect.DeepEqual(mb, want[i]) {
						t.Errorf("%s: goroutine %d read a different batch %d", name, g, i)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestHeadCacheIsTransparent: a score read from the cache is the score
// computed from the hash, on both sides of the cached head's end.
func TestHeadCacheIsTransparent(t *testing.T) {
	tch := NewClickLog(9, 0, []int{headRows + 10}, 1).teacher()
	for _, row := range []int32{0, 1, headRows - 1, headRows, headRows + 9} {
		want := tch.unitScore(0, row) * tch.signal
		for pass := 0; pass < 2; pass++ { // computed, then cached
			if got := tch.latent(0, row); got != want {
				t.Errorf("row %d pass %d: latent %v, want %v", row, pass, got, want)
			}
		}
	}
}
