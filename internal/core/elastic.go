package core

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// Elastic fault-tolerant training (the robustness layer over DistConfig):
// a run is split into segments at fault-plan boundaries. Within a segment
// every rank trains normally, taking periodic shard checkpoints priced
// through the cluster's background stream. When a rank fails, the survivors
// detect it (a timeout at the next collective, cluster.DefaultDetectSeconds),
// re-shard the dead rank's tables and data slice by restarting the run at
// R−1 ranks — TableOwner and data.ShardRange are pure functions of the rank
// count, so the remap is implicit — restore from the newest durable shard
// checkpoint, and replay the lost iterations from the counter-based data
// streams. A Rescale event is the graceful version: drain a checkpoint at
// the boundary, restart at the new rank count, no detection or replay.
//
// Because the hybrid-parallel gradient math is rank-count-independent (the
// allreduce SUM with 1/globalN scaling equals the single-socket global-batch
// gradient, and table shards see the full global batch wherever they live),
// a run that loses a rank continues on the SAME trajectory: restored from a
// checkpoint it matches an uninterrupted run at the surviving shape to float
// reassociation (~1e-6), and restarted from scratch (no checkpoints) it is
// bit-identical to one — the parity the elastic tests pin.

// ElasticConfig describes an elastic run: a base configuration (the shape
// the run starts at), a fault plan, and the recovery-model knobs.
type ElasticConfig struct {
	// Base is the initial run configuration; the driver splits it into
	// segments.
	Base DistConfig
	// Plan is the fault schedule (nil = run uninterrupted).
	Plan *cluster.FaultPlan
	// CheckpointEvery is the shard-checkpoint cadence in global iterations
	// (0 = no checkpoints: every failure replays from iteration 0 with a
	// fresh seed re-init). Shards drain and restore at DefaultCheckpointBW.
	CheckpointEvery int
	// MinRanks aborts the run (at Validate time, from the plan's shape
	// walk) if churn would shrink the cluster below it (0 = 1).
	MinRanks int
}

// Recovery describes one fault-plan event's cost breakdown.
type Recovery struct {
	Kind       cluster.FaultKind
	Iter       int // boundary: the event fired after iteration Iter-1
	FailedRank int // RankFail only; -1 for Rescale
	OldRanks   int
	NewRanks   int
	// CkptIter is the global iteration count of the durable checkpoint the
	// survivors restored from (0 = fresh re-init, full replay).
	CkptIter    int
	ReplayIters int // lost iterations re-trained at the new shape

	DetectSeconds  float64 // collective-timeout detection (RankFail only)
	DrainSeconds   float64 // boundary checkpoint drain (Rescale only)
	RestoreSeconds float64 // survivors re-reading the shard checkpoints
	ReplaySeconds  float64 // wall time of the replayed iterations
}

// TimeToRecover is the wall-clock cost of the event: everything an
// uninterrupted run would not have paid.
func (r *Recovery) TimeToRecover() float64 {
	return r.DetectSeconds + r.DrainSeconds + r.RestoreSeconds + r.ReplaySeconds
}

// ElasticSegment is one uninterrupted stretch of the run.
type ElasticSegment struct {
	StartIter int // first global iteration the segment trains
	Iters     int
	Ranks     int
	Schedule  string // schedule label
	Res       *DistResult
}

// ElasticResult aggregates an elastic run.
type ElasticResult struct {
	Segments   []ElasticSegment
	Recoveries []Recovery
	// Losses is the stitched global loss curve, one entry per global
	// iteration (functional mode only). Replayed iterations report the
	// replay's loss — the value the run actually trained through last.
	Losses []float64
	// TotalSeconds is the virtual wall clock of the whole run: segment
	// training time plus every recovery's detect/drain/restore charges.
	TotalSeconds float64
	// OverheadSeconds is the part an uninterrupted run would not have paid:
	// detect + drain + restore + replay over all recoveries.
	OverheadSeconds float64
	FinalRanks      int
	Iters           int // productive global iterations (Base.Iters)
}

// EffectiveIterSeconds is the throughput-under-churn metric: total wall
// clock over the productive iteration count.
func (r *ElasticResult) EffectiveIterSeconds() float64 {
	return r.TotalSeconds / float64(r.Iters)
}

// ckptStore is the functional runs' durable object store: per-boundary,
// per-rank serialized shard checkpoints. Rank goroutines write concurrently
// through sinkFor; the driver reads between segments.
type ckptStore struct {
	mu    sync.Mutex
	blobs map[int][][]byte // global iteration count → per-rank blob
}

// sinkFor returns a segment.sink recording each rank's shard
// under the segment's rank count. Serialization runs outside the lock, so
// concurrent ranks only contend on the map insert.
func (s *ckptStore) sinkFor(ranks int, seed int64, lr float32) func(rank, iter int, m *Model) {
	return func(rank, iter int, m *Model) {
		var buf bytes.Buffer
		if err := m.SaveWithState(&buf, TrainerState{Iter: int64(iter), Seed: seed, LR: lr}); err != nil {
			panic(fmt.Sprintf("core: elastic checkpoint sink: %v", err))
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		b := s.blobs[iter]
		if len(b) != ranks {
			b = make([][]byte, ranks)
			s.blobs[iter] = b
		}
		b[rank] = buf.Bytes()
	}
}

func (s *ckptStore) set(iter int, blobs [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[iter] = blobs
}

func (s *ckptStore) at(iter int) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blobs[iter]
}

// restoreFromBlobs returns a segment.restore loading every old-shape
// shard blob into each new-shape shard model — the cross-shape composition
// the checkpoint format guarantees: the MLP replica is overwritten with
// identical bytes by every blob, and each table lands in exactly the new
// models that own it (unowned slots skip the payload).
func restoreFromBlobs(blobs [][]byte) func(rank int, m *Model) {
	return func(rank int, m *Model) {
		for _, blob := range blobs {
			if _, err := m.LoadWithState(bytes.NewReader(blob)); err != nil {
				panic(fmt.Sprintf("core: elastic restore: %v", err))
			}
		}
	}
}

// scheduleLabel names a segment's communication schedule.
func scheduleLabel(dc *DistConfig) string {
	s := "overlapped"
	if dc.Sync {
		s = "sync"
	}
	if bb := dc.EffectiveBucketBytes(); bb > 0 {
		return fmt.Sprintf("%s+bucketed(%dMiB)", s, bb>>20)
	}
	return s + "+flat"
}

// validate checks the elastic configuration and pre-walks the fault plan's
// shape sequence, returning the resolved (in-run, sorted) events.
func (ec *ElasticConfig) validate() ([]cluster.FaultEvent, error) {
	base := &ec.Base
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if ec.CheckpointEvery < 0 {
		return nil, fmt.Errorf("core: elastic CheckpointEvery=%d, want >= 0", ec.CheckpointEvery)
	}
	minRanks := ec.MinRanks
	if minRanks == 0 {
		minRanks = 1
	}
	if minRanks < 1 || minRanks > base.Ranks {
		return nil, fmt.Errorf("core: elastic MinRanks=%d with %d starting ranks", ec.MinRanks, base.Ranks)
	}
	if ec.Plan == nil {
		return nil, nil
	}
	events, err := ec.Plan.Resolved(base.Iters)
	if err != nil {
		return nil, err
	}
	// Pre-walk the shape sequence so an impossible plan fails here, not
	// segments deep into the run.
	functional := base.RunCfg != nil
	ranks := base.Ranks
	for _, ev := range events {
		switch ev.Kind {
		case cluster.RankFail:
			if ev.Rank >= ranks {
				return nil, fmt.Errorf("core: elastic plan kills rank %d of a %d-rank cluster (%v)", ev.Rank, ranks, ev)
			}
			if ranks-1 < minRanks {
				return nil, fmt.Errorf("core: elastic plan shrinks below MinRanks=%d (%v)", minRanks, ev)
			}
			ranks--
		case cluster.Rescale:
			if ev.NewRanks < minRanks {
				return nil, fmt.Errorf("core: elastic plan rescales below MinRanks=%d (%v)", minRanks, ev)
			}
			if ev.NewRanks > base.Cfg.MaxRanks() {
				return nil, fmt.Errorf("core: elastic plan rescales to %d ranks, max %d for %s", ev.NewRanks, base.Cfg.MaxRanks(), base.Cfg.Name)
			}
			if base.Topo != nil && ev.NewRanks > base.Topo.NumSockets() {
				return nil, fmt.Errorf("core: elastic plan rescales to %d ranks on a %d-socket topology", ev.NewRanks, base.Topo.NumSockets())
			}
			ranks = ev.NewRanks
		}
		if base.GlobalN < ranks {
			return nil, fmt.Errorf("core: elastic plan leaves %d ranks sharing a global minibatch of %d", ranks, base.GlobalN)
		}
		if functional && base.GlobalN%ranks != 0 {
			return nil, fmt.Errorf("core: elastic functional run: global minibatch %d not divisible by %d survivor ranks (%v)", base.GlobalN, ranks, ev)
		}
	}
	return events, nil
}

// RunElastic executes the elastic run: segments between fault events, each
// a DistConfig run at the current shape, with recovery (detect + restore +
// replay) or rescaling (drain + restore) charged between them.
func RunElastic(ec ElasticConfig) (*ElasticResult, error) {
	events, err := ec.validate()
	if err != nil {
		return nil, err
	}
	base := ec.Base
	functional := base.RunCfg != nil

	res := &ElasticResult{Iters: base.Iters}
	if functional {
		res.Losses = make([]float64, base.Iters)
	}
	store := &ckptStore{blobs: map[int][][]byte{}}
	var durable [][]byte // blobs behind the current restore point

	ranks := base.Ranks
	start := 0       // next global iteration to train
	pendingIdx := -1 // recovery awaiting the next segment's ReplaySeconds
	var drains []int // always-durable boundaries (graceful rescale drains)
	ei := 0
	for {
		end := base.Iters
		if ei < len(events) {
			end = events[ei].Iter
		}
		dc := base
		dc.Ranks = ranks
		dc.Iters = end - start
		dc.seg = segment{startIter: start, ckptEvery: ec.CheckpointEvery}
		if !functional {
			// Timing mode tolerates non-divisible shapes by trimming the
			// global batch to the nearest multiple (the survivors train a
			// marginally smaller batch); functional mode rejected these in
			// the pre-walk.
			dc.GlobalN = base.GlobalN - base.GlobalN%ranks
		}
		if functional && ec.CheckpointEvery > 0 {
			dc.seg.sink = store.sinkFor(ranks, base.Seed, base.LR)
		}
		if functional && durable != nil {
			dc.seg.restore = restoreFromBlobs(durable)
		}

		segRes, err := dc.Run()
		if err != nil {
			return nil, err
		}
		res.Segments = append(res.Segments, ElasticSegment{
			StartIter: start, Iters: dc.Iters, Ranks: ranks,
			Schedule: scheduleLabel(&dc), Res: segRes,
		})
		res.TotalSeconds += segRes.IterSeconds * float64(dc.Iters)
		if functional {
			for i, l := range segRes.MeanLosses() {
				res.Losses[start+i] = l
			}
		}
		if pendingIdx >= 0 {
			rec := &res.Recoveries[pendingIdx]
			rec.ReplaySeconds = float64(rec.ReplayIters) * segRes.IterSeconds
			res.OverheadSeconds += rec.ReplaySeconds
			pendingIdx = -1
		}
		if ei >= len(events) {
			break
		}
		ev := events[ei]
		ei++
		oldRanks := ranks
		switch ev.Kind {
		case cluster.RankFail:
			f := ev.Iter
			// Newest durable checkpoint at or before the failure. A
			// boundary b is durable if its async drain finished before the
			// failure — conservatively, if (f−b) iterations of compute
			// covered the write — or if it predates this segment (the
			// survivors kept training while it drained) or was a graceful
			// rescale drain. b == f never qualifies: the rank died at that
			// boundary.
			c := 0
			if ec.CheckpointEvery > 0 {
				drainSec := maxShardCheckpointBytes(base.Cfg, oldRanks) / DefaultCheckpointBW
				for b := (f - 1) / ec.CheckpointEvery * ec.CheckpointEvery; b > 0; b -= ec.CheckpointEvery {
					if b <= start || drainSec <= float64(f-b)*segRes.IterSeconds {
						c = b
						break
					}
				}
			}
			for _, d := range drains {
				if d <= f-1 && d > c {
					c = d
				}
			}
			ranks--
			rec := Recovery{
				Kind: ev.Kind, Iter: f, FailedRank: ev.Rank,
				OldRanks: oldRanks, NewRanks: ranks,
				CkptIter: c, ReplayIters: f - c,
				DetectSeconds: cluster.DefaultDetectSeconds,
			}
			if c > 0 {
				rec.RestoreSeconds = maxShardCheckpointBytes(base.Cfg, ranks) / DefaultCheckpointBW
			}
			res.TotalSeconds += rec.DetectSeconds + rec.RestoreSeconds
			res.OverheadSeconds += rec.DetectSeconds + rec.RestoreSeconds
			res.Recoveries = append(res.Recoveries, rec)
			pendingIdx = len(res.Recoveries) - 1
			start = c
			if functional {
				if c > 0 {
					durable = store.at(c)
					if durable == nil {
						panic(fmt.Sprintf("core: elastic: no stored checkpoint at durable boundary %d", c))
					}
				} else {
					// Fresh re-init from the seed: the rank-count-independent
					// table seeding makes the restart bit-identical to an
					// uninterrupted run at the surviving shape.
					durable = nil
				}
			}
		case cluster.Rescale:
			f := ev.Iter
			rec := Recovery{
				Kind: ev.Kind, Iter: f, FailedRank: -1,
				OldRanks: oldRanks, NewRanks: ev.NewRanks,
				CkptIter:     f,
				DrainSeconds: maxShardCheckpointBytes(base.Cfg, oldRanks) / DefaultCheckpointBW,
			}
			rec.RestoreSeconds = maxShardCheckpointBytes(base.Cfg, ev.NewRanks) / DefaultCheckpointBW
			res.TotalSeconds += rec.DrainSeconds + rec.RestoreSeconds
			res.OverheadSeconds += rec.DrainSeconds + rec.RestoreSeconds
			res.Recoveries = append(res.Recoveries, rec)
			if functional {
				// Graceful drain: snapshot the just-finished segment's
				// models at the boundary.
				blobs := make([][]byte, oldRanks)
				for rk, m := range segRes.Models {
					var buf bytes.Buffer
					if err := m.SaveWithState(&buf, TrainerState{Iter: int64(f), Seed: base.Seed, LR: base.LR}); err != nil {
						return nil, fmt.Errorf("core: elastic rescale drain: %w", err)
					}
					blobs[rk] = buf.Bytes()
				}
				store.set(f, blobs)
				durable = blobs
			}
			drains = append(drains, f)
			ranks = ev.NewRanks
			start = f
		}
	}
	res.FinalRanks = ranks
	return res, nil
}
