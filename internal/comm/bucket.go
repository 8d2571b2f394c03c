package comm

// Bucket plans carve an MLP's per-layer gradient volumes into allreduce
// buckets for the Fig. 2 overlap schedule: the backward pass visits layers
// last to first, and as soon as a bucket's lowest layer has materialized its
// gradients the bucket's allreduce is issued — while the remaining backward
// GEMMs still run. Small layers are coalesced so no collective falls below
// the bucket size (tiny messages pay pure latency), and consecutive buckets
// round-robin over a CCL channel set so several stay in flight concurrently
// instead of queueing on one FIFO.

// Bucket is one contiguous run of layers [Lo, Hi] (inclusive) reduced by a
// single allreduce. Because layers are listed in order, a bucket is also a
// contiguous run of the MLP's gradient segment list.
type Bucket struct {
	Lo, Hi  int     // inclusive layer index range, Lo ≤ Hi
	Bytes   float64 // modeled gradient volume of the bucket
	Channel int     // CCL channel the allreduce is pinned to (-1 = label hash)
}

// Layers returns the number of layers the bucket covers.
func (b Bucket) Layers() int { return b.Hi - b.Lo + 1 }

// BucketPlan is the ordered bucket list for one MLP. Buckets appear in
// ISSUE order: Buckets[0] covers the stack's last layers (the first ones the
// backward pass completes) and the final bucket ends at layer 0.
type BucketPlan struct {
	Buckets []Bucket
}

// PlanBuckets partitions layers (layerBytes[i] = modeled gradient bytes of
// layer i) into buckets of at least bucketBytes each, walking from the last
// layer down — the backward execution order — and coalescing until the
// threshold is met. The final bucket (ending at layer 0) may stay below the
// threshold: there is nothing left to coalesce it with. bucketBytes ≤ 0
// yields a single bucket covering the whole stack (the flat allreduce,
// expressed in bucket form). Channels default to -1 (label-hash placement);
// use AssignChannels to round-robin a CCL channel set.
func PlanBuckets(layerBytes []float64, bucketBytes float64) BucketPlan {
	if len(layerBytes) == 0 {
		return BucketPlan{}
	}
	buckets := make([]Bucket, 0, len(layerBytes))
	hi := len(layerBytes) - 1
	var acc float64
	for lo := hi; lo >= 0; lo-- {
		acc += layerBytes[lo]
		if (bucketBytes > 0 && acc >= bucketBytes) || lo == 0 {
			buckets = append(buckets, Bucket{Lo: lo, Hi: hi, Bytes: acc, Channel: -1})
			hi, acc = lo-1, 0
		}
	}
	return BucketPlan{Buckets: buckets}
}

// AssignChannels pins the plan's buckets round-robin onto the given CCL
// channel set, starting at rotation offset start, and returns the next
// offset — so a caller planning several MLPs (top then bottom) can continue
// the rotation across plans and keep adjacent buckets on distinct FIFOs. An
// empty channel set resets every bucket to label-hash placement.
func (p BucketPlan) AssignChannels(channels []int, start int) int {
	if len(channels) == 0 {
		for i := range p.Buckets {
			p.Buckets[i].Channel = -1
		}
		return start
	}
	for i := range p.Buckets {
		p.Buckets[i].Channel = channels[(start+i)%len(channels)]
	}
	return start + len(p.Buckets)
}
