// Package cluster is the multi-socket execution substrate: every rank (one
// per socket, as in the paper's runs) executes the same SPMD program,
// collectives move real data between ranks, and *time* is virtual — charged
// from the perfmodel and fabric cost models. This is the substitution that
// lets the paper's 8- and 64-socket experiments regenerate on any machine:
// functional behaviour is executed, hardware speed is simulated.
//
// A job's ranks are advanced in one of two ways. Run hosts a body per rank,
// each on its own goroutine, parking on a condition variable inside a
// rendezvous until the last rank arrives; bodies that compute between
// collectives (functional training) overlap their kernels across host cores
// this way. A caller that runs no kernel — core's timing evaluator — builds
// the ranks with NewRanks instead and advances all of them itself, step by
// step, issuing each collective for every rank at once through
// CollectiveAll: no goroutine, no rendezvous, nothing locked. Both run
// leaders in global issue order and start a collective at the latest
// rank's ready time, so they charge identical virtual times.
//
// Each rank owns a compute stream (its virtual clock, advanced by Compute)
// and one or more communication channels (advanced by collectives). The two
// progress semantics of §IV-C/§VI-D are modeled:
//
//   - MPIBackend: a single communication channel processed FIFO, so a wait
//     on operation k implicitly waits for everything enqueued before it (the
//     in-order-completion artifact that surfaces allreduce cost at the
//     alltoall wait), and compute issued while communication is in flight is
//     inflated by an interference factor (the unpinned progress thread
//     stealing cycles from compute threads).
//   - CCLBackend: several channels driven by dedicated, pinned cores; no
//     compute interference, out-of-order waits — but CommCores cores are
//     excluded from compute.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

// Backend selects the communication-progress semantics.
type Backend int

const (
	// MPIBackend models PyTorch's MPI process group (§IV-C).
	MPIBackend Backend = iota
	// CCLBackend models the oneCCL integration (§IV-C).
	CCLBackend
)

// String returns the paper's label for the backend.
func (b Backend) String() string {
	if b == CCLBackend {
		return "CCL Backend"
	}
	return "MPI Backend"
}

// Config describes a simulated machine and software stack.
type Config struct {
	Ranks  int
	Topo   fabric.Topology
	Socket perfmodel.Socket

	Backend Backend

	// CommCores is the number of cores dedicated to communication. For CCL
	// these are pinned and excluded from compute; for MPI the progress
	// thread is unpinned, so CommCores is 0 and Interference applies.
	CommCores int
	// Interference inflates compute issued while MPI communication is in
	// flight (≥ 1). Ignored for CCL.
	Interference float64
	// CallOverhead is the per-collective framework cost in seconds (enqueue,
	// flat-buffer bookkeeping); the "Framework" component of Figs. 11/14.
	CallOverhead float64
	// Contention is the job's switch for contention-aware charging. The
	// engine does not read it; comm does: its leaders then charge each
	// collective extra time for the residual bytes of concurrently in-flight
	// collectives on shared links, as tracked by the job's comm.Pricer. Off
	// by default — every collective is then priced in isolation, so
	// committed virtual baselines stay bit-identical.
	Contention bool

	// Pools supplies each rank's persistent compute worker pool (the
	// NUMA-style one-pool-per-socket layout). When nil, Run creates a
	// transient set and closes it when the job finishes; callers running
	// many functional jobs (the benchmark's loops) pass a shared *Pools so
	// the worker goroutines persist across runs. A job whose bodies never
	// call Rank.Pool — every timing run — has no use for one.
	Pools *Pools
}

// CommSlowdown returns the factor by which collective durations stretch
// because the backend cannot saturate the fabric: the MPI backend drives
// communication from a single progress thread (§VI-D1 observes its pure
// communication cost exceeds CCL's), while the CCL backend saturates at
// about 4 dedicated workers (§IV-C: "we need multiple threads to saturate
// the full communication bandwidth"). Exported for holders that price
// transfers outside the SPMD collective path (the serving tier charges
// request-scoped shard fetches with it).
func (c Config) CommSlowdown() float64 {
	if c.Backend == MPIBackend {
		return 1.5
	}
	workers := c.CommCores
	if workers < 1 {
		workers = 1
	}
	if workers >= 4 {
		return 1
	}
	return 4 / float64(workers)
}

// CCLChannels is the number of parallel communication channels of the CCL
// backend (oneCCL workers). MPI always has exactly one.
const CCLChannels = 4

// WithDefaults fills unset tuning fields with the values used throughout the
// experiments: 4 CCL comm cores, 30% MPI interference, 25 µs per framework
// call.
func (c Config) WithDefaults() Config {
	if c.Backend == CCLBackend && c.CommCores == 0 {
		c.CommCores = 4
	}
	if c.Interference == 0 {
		c.Interference = 1.3
	}
	if c.CallOverhead == 0 {
		c.CallOverhead = 25e-6
	}
	return c
}

// Validate reports the first problem that makes c no machine to price on:
// no rank, a missing or too small fabric, an unknown backend, a socket with a
// zero (or NaN) rate, communication cores that leave no compute core, or an
// interference factor below 1. core.DistConfig and serve.Config check their
// machine through it.
func (c Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("cluster: Ranks=%d, want >= 1", c.Ranks)
	}
	if c.Ranks > 1 {
		if c.Topo == nil {
			return fmt.Errorf("cluster: %d ranks need a fabric topology for the collectives", c.Ranks)
		}
		if n := c.Topo.NumSockets(); n < c.Ranks {
			return fmt.Errorf("cluster: topology has %d sockets, fewer than %d ranks", n, c.Ranks)
		}
	}
	if c.Backend != MPIBackend && c.Backend != CCLBackend {
		return fmt.Errorf("cluster: unknown backend %d", int(c.Backend))
	}
	if s := c.Socket; s.Cores < 1 || !(s.PeakFlops > 0 && s.MemBW > 0 && s.GemmEff > 0 && s.EmbedEff > 0) {
		// A zero socket would price every kernel at 0, +Inf or NaN and report
		// it as a measurement.
		return fmt.Errorf("cluster: Socket %+v: Cores, PeakFlops, MemBW, GemmEff and EmbedEff must all be positive", s)
	}
	if c.CommCores < 0 {
		return fmt.Errorf("cluster: CommCores=%d, want >= 0", c.CommCores)
	}
	if cc := c.WithDefaults().CommCores; cc >= c.Socket.Cores {
		return fmt.Errorf("cluster: CommCores=%d leaves no compute cores on a %d-core socket", cc, c.Socket.Cores)
	}
	if c.Interference != 0 && !(c.Interference >= 1) {
		return fmt.Errorf("cluster: Interference=%v, want >= 1 (or 0 for the backend default)", c.Interference)
	}
	return nil
}

// Engine coordinates the ranks of one simulated job.
type Engine struct {
	Cfg Config

	// Under Run, mu guards everything below and cond wakes the ranks waiting
	// in a rendezvous; CollectiveAll's caller has the engine to itself.
	mu   sync.Mutex
	cond *sync.Cond
	// ranks are the job's ranks. waiting counts those parked in a
	// rendezvous and finished those whose body has returned; when they add
	// up to every rank while no open rendezvous is complete, nobody can move
	// again (see stalled). abort, once set, is what Run re-raises: a body's
	// panic or the deadlock report. Every parked rank then unwinds.
	ranks             []*Rank
	waiting, finished int
	abort             any

	// pair holds the rendezvous of collective seq in pair[seq&1]. Two are
	// enough: a rank reaches collective k+2 only after k+1 is complete,
	// which needs every rank to have arrived at k+1 — so every rank has
	// left k and its slot is free. A slot is open while arrived > 0; its
	// buffers are made on its first rendezvous (timing runs have none).
	pair  [2]slot
	pools *Pools

	// shared is the job-wide value of a layer above (see Shared).
	sharedMu sync.Mutex
	shared   any
}

// Shared returns the engine's job-wide value, building it with mk on the
// first call: how a layer above keeps one instance of rank-free state per
// job instead of one per rank (comm's collective pricer). Safe to call from
// every rank's body.
func (e *Engine) Shared(mk func() any) any {
	e.sharedMu.Lock()
	defer e.sharedMu.Unlock()
	if e.shared == nil {
		e.shared = mk()
	}
	return e.shared
}

type slot struct {
	seq      int64
	label    string // the first arriver's, for the deadlock report
	payloads []any
	ready    []float64
	arrived  int
	done     bool
	finish   float64
	dur      float64
}

// LeaderFunc computes a collective's virtual duration — and, for data-moving
// collectives, performs the data movement by writing into the per-rank
// payload records — from the gathered per-rank payloads. It runs exactly
// once per collective, on the last-arriving rank, with that rank's arg.
// Bodies are SPMD, so every rank's arg must describe the same collective;
// leaders should be package-level functions and args pointers to persistent
// per-rank state so that issuing a collective performs no heap allocation
// (the same static-body convention as par.ForNArg).
type LeaderFunc func(arg any, payloads []any, start float64) (dur float64)

// Rank is the per-rank handle: its virtual clocks. What a charge is for is
// the caller's to book: Compute and Wait return the time they charged, and a
// Handle carries its operation's busy time.
type Rank struct {
	ID  int
	Eng *Engine

	now       float64
	commFree  []float64
	asyncFree float64 // background-thread stream (Async): busy until here
	seq       int64
}

// Pool returns this rank's persistent compute worker pool, lazily created
// from the engine's Pools set and sized to the socket's compute cores
// (communication cores excluded under CCL), capped at GOMAXPROCS.
func (r *Rank) Pool() *par.Pool {
	return r.Eng.pools.Get(r.ID, r.ComputeCores())
}

// Handle identifies an in-flight collective for a later Wait. It is a plain
// value (the zero Handle is an already-complete no-op), so issuing and
// waiting on collectives never allocates.
type Handle struct {
	// Channel is the physical communication channel the operation was
	// placed on: the resolved CCL channel (an explicit CollectiveOn hint
	// taken mod CCLChannels, or the label-hash pick), always 0 for MPI —
	// which has a single channel and drops hints entirely — and -1 for
	// Async work, which runs on the rank-local background stream rather
	// than a communication channel. Only tests read it, to check where an
	// operation actually ran.
	Channel int
	// Busy is the operation's duration: a collective's, stretched by the
	// backend's slowdown, or an Async charge's seconds.
	Busy   float64
	finish float64
}

// Run executes body once per rank and returns once all complete. Bodies
// must be SPMD: every rank issues the same sequence of collectives.
//
// Every body runs on its own goroutine; a rank that reaches a rendezvous
// before the others parks until the last arriver has run the leader. Leaders
// run one at a time, in global issue order (every rank blocks in each
// rendezvous), so a result cannot depend on scheduling. A body may block
// only on the cluster's own rendezvous (Collective, Barrier) or on work that
// finishes by itself. A body that breaks SPMD — returns early, issues fewer
// collectives — is reported by a panic naming the open collective and the
// missing ranks, not a hang, and a panic inside a body is re-raised on the
// caller's goroutine; either way every other body is unwound first.
func Run(cfg Config, body func(r *Rank)) {
	e, ranks := newJob(cfg)
	if e.pools == nil {
		e.pools = NewPools()
		defer e.pools.Close()
	}
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		go func() {
			defer wg.Done()
			defer e.exit()
			body(r)
		}()
	}
	wg.Wait()
	if e.abort != nil {
		panic(e.abort)
	}
}

// NewRanks builds a job's engine and ranks without running anything on
// them: the form for a caller that advances every rank itself, step by step,
// and issues each collective for all of them at once (CollectiveAll). Rank.Pool
// is available only if cfg.Pools is set.
func NewRanks(cfg Config) []*Rank {
	_, ranks := newJob(cfg)
	return ranks
}

// newJob validates cfg and builds the engine and its ranks.
func newJob(cfg Config) (*Engine, []*Rank) {
	cfg = cfg.WithDefaults()
	if cfg.Ranks < 1 {
		panic(fmt.Sprintf("cluster: Ranks=%d", cfg.Ranks))
	}
	if cfg.Topo != nil && cfg.Topo.NumSockets() < cfg.Ranks {
		panic(fmt.Sprintf("cluster: topology has %d sockets for %d ranks", cfg.Topo.NumSockets(), cfg.Ranks))
	}
	e := &Engine{Cfg: cfg, pools: cfg.Pools}
	e.cond = sync.NewCond(&e.mu)
	channels := 1
	if cfg.Backend == CCLBackend {
		channels = CCLChannels
	}
	rs := make([]Rank, cfg.Ranks)
	free := make([]float64, cfg.Ranks*channels)
	e.ranks = make([]*Rank, cfg.Ranks)
	for id := range rs {
		rs[id] = Rank{ID: id, Eng: e, commFree: free[id*channels : (id+1)*channels : (id+1)*channels]}
		e.ranks[id] = &rs[id]
	}
	return e, e.ranks
}

// stopped is what unwinds a parked rank body once Run has given up on the
// job (see abort).
type stopped struct{}

// exit is deferred by every rank goroutine of Run: a body that returned
// counts as finished, which may leave the others stalled; a body that
// panicked aborts the job with its value, waking every parked rank to
// unwind.
func (e *Engine) exit() {
	p := recover()
	e.mu.Lock()
	defer e.mu.Unlock()
	switch p.(type) {
	case nil:
		e.finished++
		e.stalled()
	case stopped:
	default:
		if e.abort == nil {
			e.abort = p
		}
		e.cond.Broadcast()
	}
}

// stalled is checked, under e.mu, whenever a rank parks or finishes: if
// every rank has, and no open rendezvous is complete, no rank can move
// again — the bodies are not SPMD — and the job is aborted with a report.
func (e *Engine) stalled() {
	if e.abort != nil || e.waiting == 0 || e.waiting+e.finished < e.Cfg.Ranks {
		return
	}
	for i := range e.pair {
		if s := &e.pair[i]; s.arrived > 0 && s.done {
			return // its waiters are about to leave
		}
	}
	e.abort = e.deadlockReport()
	e.cond.Broadcast()
}

// deadlockReport describes the lowest open rendezvous once no rank can
// move: everyone left waits for ranks that will never join.
func (e *Engine) deadlockReport() string {
	open := &e.pair[0]
	if o := &e.pair[1]; o.arrived > 0 && (open.arrived == 0 || o.seq < open.seq) {
		open = o
	}
	var missing []int
	for _, r := range e.ranks {
		if r.seq <= open.seq {
			missing = append(missing, r.ID)
		}
	}
	return fmt.Sprintf("cluster: deadlock: collective #%d (%q) has %d of %d ranks waiting and rank(s) %v "+
		"returned without issuing it — rank bodies must be SPMD and may block only on the cluster's rendezvous",
		open.seq, open.label, open.arrived, e.Cfg.Ranks, missing)
}

// Now returns the rank's current compute-stream virtual time.
func (r *Rank) Now() float64 { return r.now }

// ComputeCores returns the cores available to compute kernels: all of them
// under MPI (the progress thread is not reserved — hence interference) and
// Cores−CommCores under CCL, with the backend's default communication-core
// count applied. The one definition Rank.ComputeCores, the serving cost model
// and the distributed plan builder share.
func (c Config) ComputeCores() int {
	c = c.WithDefaults()
	if c.Backend == CCLBackend {
		return c.Socket.Cores - c.CommCores
	}
	return c.Socket.Cores
}

// ComputeCores returns the cores available to this rank's compute kernels
// (Config.ComputeCores of the job's configuration).
func (r *Rank) ComputeCores() int { return r.Eng.Cfg.ComputeCores() }

// Compute advances the rank's clock by seconds of kernel time and returns
// the seconds charged. Under the MPI backend, compute that overlaps
// in-flight communication is inflated by the interference factor.
func (r *Rank) Compute(seconds float64) float64 {
	if seconds < 0 {
		panic("cluster: negative compute time")
	}
	if r.Eng.Cfg.Backend == MPIBackend && r.Eng.Cfg.Interference > 1 {
		busy := false
		for _, f := range r.commFree {
			if f > r.now {
				busy = true
				break
			}
		}
		if busy {
			seconds *= r.Eng.Cfg.Interference
		}
	}
	r.now += seconds
	return seconds
}

// Prep charges framework pre/post-processing (flat-buffer packing, gradient
// averaging) to the compute stream, never inflated by interference.
func (r *Rank) Prep(seconds float64) { r.now += seconds }

// Async charges seconds of background work — a prefetching loader goroutine,
// a double-buffered staging copy — to a single per-rank background stream
// that runs concurrently with the compute clock. The work starts now, or
// when the previous Async operation finishes (one background thread, FIFO),
// and the returned Handle exposes on Wait only whatever outlasts the compute
// issued in the meantime. The Handle's Busy is seconds, so hidden-vs-exposed
// accounting works exactly as for collectives; unlike a collective it
// involves no rendezvous (the work is rank-local) and charges no call
// overhead.
func (r *Rank) Async(seconds float64) Handle {
	if seconds < 0 {
		panic("cluster: negative async time")
	}
	start := r.now
	if r.asyncFree > start {
		start = r.asyncFree
	}
	finish := start + seconds
	r.asyncFree = finish
	return Handle{Channel: -1, Busy: seconds, finish: finish}
}

// Collective issues one collective operation. payload carries this rank's
// contribution (a pointer to real data and/or receive buffers); lead runs
// once, on the last-arriving rank with that rank's arg, moving data between
// the payload records and returning the operation's virtual duration. The
// call returns a Handle for Wait; the moved data is already in place when
// Collective returns (the rendezvous is synchronous — only *time* is
// deferred to Wait).
//
// Channel selection: MPI has one FIFO channel; CCL spreads labels across
// its channels so independent collectives progress concurrently.
func (r *Rank) Collective(label string, payload, arg any, lead LeaderFunc) Handle {
	return r.CollectiveOn(label, -1, payload, arg, lead)
}

// CollectiveOn is Collective with an explicit channel hint: channel ≥ 0 pins
// the operation to that CCL channel (taken mod CCLChannels), so callers that
// issue several concurrent collectives can place them on distinct FIFOs and
// have the per-channel queueing model charge true contention instead of
// whatever the label hash happens to collide. channel < 0 keeps the default
// label-hash placement. The MPI backend has exactly one in-order channel,
// so any hint — like the label hash — is dropped and the operation queues
// FIFO behind everything already issued; either way the channel the
// operation actually landed on is recorded on the returned Handle.
func (r *Rank) CollectiveOn(label string, channel int, payload, arg any, lead LeaderFunc) Handle {
	ch, ready, seq := r.arrive(label, channel)
	finish, dur := r.Eng.exchange(r, seq, label, payload, ready, arg, lead)
	return r.depart(ch, finish, dur)
}

// CollectiveAll issues one collective on every rank of a job at once, in
// rank order — how a caller that advances the ranks itself (NewRanks) does
// what R CollectiveOn calls meeting in a rendezvous do under Run: each
// rank's call overhead, channel pick, ready time and sequence number; the
// leader once, at the latest ready time; the finish on every rank.
// payloads[i] is rank i's payload and arg the
// leader's args, which SPMD makes the same on every rank. The start is a
// maximum and leaders still run in issue order, so the charges equal Run's
// bit for bit. Every rank's handle is the one returned.
func CollectiveAll(ranks []*Rank, label string, channel int, payloads []any, arg any, lead LeaderFunc) Handle {
	var ch int
	var start float64
	for i, r := range ranks {
		c, ready, _ := r.arrive(label, channel)
		ch = c
		if i == 0 || ready > start {
			start = ready
		}
	}
	finish, dur := ranks[0].Eng.lead(lead, arg, payloads, start)
	var h Handle
	for _, r := range ranks {
		h = r.depart(ch, finish, dur)
	}
	return h
}

// arrive is a collective's rank-local half before the rendezvous: the call
// overhead, the channel pick, and the time the channel can start it.
func (r *Rank) arrive(label string, channel int) (ch int, ready float64, seq int64) {
	cfg := &r.Eng.Cfg
	r.now += cfg.CallOverhead
	if cfg.Backend == CCLBackend {
		if channel >= 0 {
			ch = channel % len(r.commFree)
		} else {
			ch = hashLabel(label) % len(r.commFree)
		}
	}
	ready = r.now
	if r.commFree[ch] > ready {
		ready = r.commFree[ch]
	}
	seq = r.seq
	r.seq++
	return ch, ready, seq
}

// depart is its half after: the channel is busy until finish.
func (r *Rank) depart(ch int, finish, dur float64) Handle {
	r.commFree[ch] = finish
	return Handle{Channel: ch, Busy: dur, finish: finish}
}

// Wait blocks the compute stream until the operation completes and returns
// the exposed stall (0 if it already had). The zero Handle is a no-op.
func (r *Rank) Wait(h Handle) float64 {
	if h.finish <= r.now {
		return 0
	}
	stall := h.finish - r.now
	r.now = h.finish
	return stall
}

func barrierLead(any, []any, float64) float64 { return 0 }

// Barrier synchronizes all ranks' compute clocks (zero-duration collective)
// and waits immediately.
func (r *Rank) Barrier() {
	r.Wait(r.Collective("barrier", nil, nil, barrierLead))
}

// exchange is Run's rendezvous: gathers payloads and ready times from all
// ranks, runs the leader once, and releases everyone once the data has
// moved and the duration is known.
func (e *Engine) exchange(r *Rank, seq int64, label string, payload any, ready float64, arg any, lead LeaderFunc) (float64, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.abort != nil {
		panic(stopped{})
	}
	s := &e.pair[seq&1]
	if s.arrived == 0 { // the first arriver opens the slot
		if s.payloads == nil {
			s.payloads, s.ready = make([]any, e.Cfg.Ranks), make([]float64, e.Cfg.Ranks)
		}
		s.seq, s.label, s.done = seq, label, false
	}
	s.payloads[r.ID] = payload
	s.ready[r.ID] = ready
	s.arrived++
	if s.arrived == e.Cfg.Ranks {
		start := s.ready[0]
		for _, t := range s.ready[1:] {
			if t > start {
				start = t
			}
		}
		s.finish, s.dur = e.lead(lead, arg, s.payloads, start)
		s.done = true
		e.cond.Broadcast()
	} else {
		e.waiting++
		for !s.done {
			if e.stalled(); e.abort != nil {
				panic(stopped{})
			}
			e.cond.Wait()
		}
		e.waiting--
	}
	// Last rank out drops the payload references, closing the slot.
	if s.arrived--; s.arrived == 0 {
		clear(s.payloads)
	}
	return s.finish, s.dur
}

// lead runs a collective's leader from its start and returns the finish
// and the duration, stretched by the backend's slowdown.
func (e *Engine) lead(lead LeaderFunc, arg any, payloads []any, start float64) (finish, dur float64) {
	dur = lead(arg, payloads, start) * e.Cfg.CommSlowdown()
	return start + dur, dur
}

func hashLabel(s string) int {
	h := 0
	for i := 0; i < len(s); i++ {
		h = h*31 + int(s[i])
	}
	if h < 0 {
		h = -h
	}
	return h
}
