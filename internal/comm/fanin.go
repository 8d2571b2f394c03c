package comm

import "repro/internal/fabric"

// FanIn prices request-scoped fan-in transfers: many sources each sending a
// payload to one destination socket, concurrently, with the slowest route
// pacing the whole gather. It is the communication primitive behind the
// serving tier's distributed embedding lookup — a model replica pulls each
// remote shard owner's bag outputs for one micro-batch — and deliberately
// does NOT ride the SPMD collective path: a request touches only the
// sockets it needs, at whatever virtual time the request dispatches, with
// no rendezvous against other ranks.
//
// Like the Comm collectives it is allocation-free after warmup: the flow
// list and phase scratch are owned by the FanIn and reused across calls. A
// FanIn is not safe for concurrent use; the serving event loop is
// single-threaded.
type FanIn struct {
	Topo fabric.Topology

	scratch fabric.Scratch
	flows   []fabric.Flow
}

// place rebuilds the flow list for gathering perSrc[s] bytes from each
// socket s into dst. Self and zero-byte entries are skipped.
func (f *FanIn) place(dst int, perSrc []float64) {
	f.flows = f.flows[:0]
	for src, bytes := range perSrc {
		if src == dst || bytes <= 0 {
			continue
		}
		f.flows = append(f.flows, fabric.Flow{Src: src, Dst: dst, Bytes: bytes})
	}
}

// Time returns the isolated (uncontended) duration of the gather: all
// flows placed on their routes at once, bottleneck link pacing, plus the
// worst route latency — fabric.Scratch.PhaseTime semantics. The duration
// is pre-backend-slowdown; callers charging a virtual clock multiply by
// cluster.Config.CommSlowdown, exactly as the collective leaders do.
func (f *FanIn) Time(dst int, perSrc []float64) float64 {
	f.place(dst, perSrc)
	if len(f.flows) == 0 {
		return 0
	}
	return f.scratch.PhaseTime(f.Topo, f.flows)
}
