package comm

import (
	"math/rand"
	"testing"
)

// TestPlanBucketsPartition property-tests the plan over random layer-size
// vectors: buckets must exactly partition the layer range in backward order
// (first bucket ends at the last layer, last bucket starts at layer 0, no
// gaps or overlaps), carry the summed volume, and — except for the final
// bucket, which has nothing left to coalesce with — meet the bucket size.
func TestPlanBucketsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		layers := make([]float64, n)
		var total float64
		for i := range layers {
			layers[i] = float64(1 + rng.Intn(1000))
			total += layers[i]
		}
		bucketBytes := float64(1 + rng.Intn(3000))
		p := PlanBuckets(layers, bucketBytes)
		if len(p.Buckets) == 0 {
			t.Fatalf("trial %d: empty plan for %d layers", trial, n)
		}
		if p.Buckets[0].Hi != n-1 {
			t.Fatalf("trial %d: first bucket ends at %d, want last layer %d", trial, p.Buckets[0].Hi, n-1)
		}
		if last := p.Buckets[len(p.Buckets)-1]; last.Lo != 0 {
			t.Fatalf("trial %d: last bucket starts at %d, want 0", trial, last.Lo)
		}
		var sum float64
		for i, b := range p.Buckets {
			if b.Lo > b.Hi {
				t.Fatalf("trial %d: bucket %d inverted [%d,%d]", trial, i, b.Lo, b.Hi)
			}
			if i > 0 && p.Buckets[i-1].Lo != b.Hi+1 {
				t.Fatalf("trial %d: bucket %d [%d,%d] not adjacent to previous Lo %d",
					trial, i, b.Lo, b.Hi, p.Buckets[i-1].Lo)
			}
			var want float64
			for l := b.Lo; l <= b.Hi; l++ {
				want += layers[l]
			}
			if b.Bytes != want {
				t.Fatalf("trial %d: bucket %d bytes %g want %g", trial, i, b.Bytes, want)
			}
			sum += b.Bytes
			if i < len(p.Buckets)-1 && b.Bytes < bucketBytes {
				t.Fatalf("trial %d: non-final bucket %d below threshold: %g < %g",
					trial, i, b.Bytes, bucketBytes)
			}
			if b.Channel != -1 {
				t.Fatalf("trial %d: fresh plan bucket %d channel %d, want -1", trial, i, b.Channel)
			}
		}
		if sum != total {
			t.Fatalf("trial %d: buckets sum to %g bytes, want %g", trial, sum, total)
		}
	}
}

// TestPlanBucketsFlat checks the degenerate forms: a non-positive bucket
// size yields one bucket spanning the stack, and a threshold beyond the
// total volume coalesces everything too.
func TestPlanBucketsFlat(t *testing.T) {
	layers := []float64{10, 20, 30}
	for _, bb := range []float64{0, -1, 1e9} {
		p := PlanBuckets(layers, bb)
		if len(p.Buckets) != 1 {
			t.Fatalf("bucketBytes=%g: %d buckets, want 1", bb, len(p.Buckets))
		}
		if b := p.Buckets[0]; b.Lo != 0 || b.Hi != 2 || b.Bytes != 60 {
			t.Fatalf("bucketBytes=%g: bucket %+v", bb, b)
		}
	}
	if p := PlanBuckets(nil, 10); len(p.Buckets) != 0 {
		t.Fatal("empty layer list must give an empty plan")
	}
	// One bucket per layer when every layer meets the threshold alone.
	p := PlanBuckets([]float64{10, 20, 30}, 5)
	if len(p.Buckets) != 3 || p.Buckets[0].Hi != 2 || p.Buckets[0].Lo != 2 {
		t.Fatalf("per-layer plan wrong: %+v", p.Buckets)
	}
}

// TestAssignChannels checks the round-robin channel pinning and the
// cross-plan rotation handoff.
func TestAssignChannels(t *testing.T) {
	layers := []float64{1, 1, 1, 1, 1}
	top := PlanBuckets(layers, 1) // 5 buckets
	bot := PlanBuckets(layers[:3], 1)
	chans := []int{0, 1, 2}
	next := top.AssignChannels(chans, 0)
	if next != 5 {
		t.Fatalf("rotation offset after top: %d want 5", next)
	}
	for i, b := range top.Buckets {
		if b.Channel != chans[i%3] {
			t.Fatalf("top bucket %d on channel %d want %d", i, b.Channel, chans[i%3])
		}
	}
	bot.AssignChannels(chans, next)
	// Continuing at offset 5 ⇒ channels 2, 0, 1: the bottom MLP's first
	// bucket lands on a different FIFO than the top's last (channel 1).
	want := []int{2, 0, 1}
	for i, b := range bot.Buckets {
		if b.Channel != want[i] {
			t.Fatalf("bot bucket %d on channel %d want %d", i, b.Channel, want[i])
		}
	}
	// Empty set resets to label-hash placement.
	top.AssignChannels(nil, 0)
	for i, b := range top.Buckets {
		if b.Channel != -1 {
			t.Fatalf("bucket %d channel %d after reset, want -1", i, b.Channel)
		}
	}
}

// TestBinaryTreeChunksCalibration pins the dynamic chunk rule: one chunk in
// the latency-bound regime, the 4·depth pipeline cap once bandwidth-bound,
// monotone non-decreasing in between.
func TestBinaryTreeChunksCalibration(t *testing.T) {
	const r = 64
	if c := BinaryTreeChunks(4e3, r); c != 1 {
		t.Errorf("4KB should be a single chunk, got %d", c)
	}
	depth := 6 // bits.Len(63)
	if c := BinaryTreeChunks(1e9, r); c != 4*depth {
		t.Errorf("1GB should hit the 4·depth=%d pipeline cap, got %d", 4*depth, c)
	}
	prev := 0
	for _, bytes := range []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10} {
		c := BinaryTreeChunks(bytes, r)
		if c < prev {
			t.Fatalf("chunk count decreased: %d chunks at %g bytes after %d", c, bytes, prev)
		}
		prev = c
	}
	if c := BinaryTreeChunks(1e6, 2); c < 1 {
		t.Errorf("2-rank chunk count must stay positive, got %d", c)
	}
}
