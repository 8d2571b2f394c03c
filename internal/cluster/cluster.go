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
	"slices"
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

	Backend  Backend
	Blocking bool // wait immediately after every collective (the instrumented "blocking" runs)

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
	// Contention selects the contention-aware charging mode: collectives
	// that register their per-link loads (comm's leaders do) are charged
	// extra time for the residual bytes of concurrently in-flight
	// collectives on shared links, via Engine.ChargeContended. Off by
	// default — every collective is then priced in isolation, exactly as
	// before the knob existed, so committed virtual baselines stay
	// bit-identical.
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

// Stats is one rank's virtual-time accounting, keyed by the labels the
// trainer passes (e.g. "alltoall", "allreduce"). Run materialises it when
// the rank's body returns; Rank.Stats and Rank.StatsInto on demand.
type Stats struct {
	Compute  float64            // seconds in compute (after any inflation)
	Wait     map[string]float64 // exposed wait per collective label
	CommBusy map[string]float64 // raw collective durations (busy time)
	Prep     map[string]float64 // framework pre/post processing per label
}

// TotalWait sums exposed waits over all labels (in label order, see
// AddByLabel).
func (s *Stats) TotalWait() float64 { return AddByLabel(0, s.Wait) }

// AddByLabel adds a per-label map's values to acc one by one in ascending
// label order: float addition is not associative, so a sum in Go's random
// map order differs in its last bits from run to run.
func AddByLabel(acc float64, m map[string]float64) float64 {
	var buf [16]string
	labels := buf[:0]
	for l := range m {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	for _, l := range labels {
		acc += m[l]
	}
	return acc
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

	active []*slot // in-flight collectives (at most a handful; linear scan)
	free   *slot   // recycled slot free list — steady state allocates none
	pools  *Pools

	// shared is the job-wide value of a layer above (see Shared).
	sharedMu sync.Mutex
	shared   any

	// The contention epoch (Cfg.Contention): time windows and link loads of
	// charged collectives still in flight, shared across all channels and
	// ranks. Mutated only from ChargeContended, which runs in leader
	// context — one leader at a time — so no further locking is needed.
	// Records are recycled through a free list; steady state allocates none.
	inflight   []*flight
	flightFree *flight
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

// flight is one charged collective's window on the contention epoch.
type flight struct {
	start, finish float64 // scaled (post-CommSlowdown) virtual time
	loads         fabric.LoadSet
	next          *flight // free-list link
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
	next     *slot // free-list link
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

// Rank is the per-rank handle: virtual clocks plus statistics.
type Rank struct {
	ID  int
	Eng *Engine

	now       float64
	commFree  []float64
	asyncFree float64 // background-thread stream (Async): busy until here
	seq       int64

	// The accounting behind Stats: one record per label in first-use order,
	// found by scanning a handful of entries instead of three map writes
	// per collective; each label accumulates in program order, as in a map.
	compute float64
	acct    []labelAcct
	acctBuf [8]labelAcct // acct's first backing array
}

// labelAcct is one label's accumulated times; has records which of the
// three Stats maps it belongs in (a label that only waited has no Prep).
type labelAcct struct {
	label            string
	wait, busy, prep float64
	has              uint8
}

const (
	hasWait uint8 = 1 << iota
	hasBusy
	hasPrep
)

// account returns label's record, marking it present in the given maps.
func (r *Rank) account(label string, has uint8) *labelAcct {
	for i := range r.acct {
		if a := &r.acct[i]; a.label == label {
			a.has |= has
			return a
		}
	}
	if r.acct == nil {
		r.acct = r.acctBuf[:0]
	}
	r.acct = append(r.acct, labelAcct{label: label, has: has})
	return &r.acct[len(r.acct)-1]
}

// Stats materialises the rank's accounting as the exported per-label maps.
func (r *Rank) Stats() Stats {
	var s Stats
	r.StatsInto(&s)
	return s
}

// StatsInto is Stats into maps the caller owns: s's maps are cleared (made
// if nil) and refilled, so a caller folding rank after rank reuses one set.
func (r *Rank) StatsInto(s *Stats) {
	s.Compute = r.compute
	s.Wait, s.CommBusy, s.Prep = cleared(s.Wait), cleared(s.CommBusy), cleared(s.Prep)
	for i := range r.acct {
		a := &r.acct[i]
		if a.has&hasWait != 0 {
			s.Wait[a.label] = a.wait
		}
		if a.has&hasBusy != 0 {
			s.CommBusy[a.label] = a.busy
		}
		if a.has&hasPrep != 0 {
			s.Prep[a.label] = a.prep
		}
	}
}

// cleared returns m emptied, or a new map if m is nil.
func cleared(m map[string]float64) map[string]float64 {
	if m == nil {
		return map[string]float64{}
	}
	clear(m)
	return m
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
	Label string
	// Channel is the physical communication channel the operation was
	// placed on: the resolved CCL channel (an explicit CollectiveOn hint
	// taken mod CCLChannels, or the label-hash pick), always 0 for MPI —
	// which has a single channel and drops hints entirely — and -1 for
	// Async work, which runs on the rank-local background stream rather
	// than a communication channel. Placement tests and the contention
	// figures read it to verify where an operation actually ran.
	Channel int
	finish  float64
}

// Run executes body once per rank and returns the per-rank statistics once
// all complete. Bodies must be SPMD: every rank issues the same sequence of
// collectives.
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
func Run(cfg Config, body func(r *Rank)) []Stats {
	e, ranks := newJob(cfg)
	if e.pools == nil {
		e.pools = NewPools()
		defer e.pools.Close()
	}
	stats := make([]Stats, len(ranks))
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		go func() {
			defer wg.Done()
			defer e.exit()
			body(r)
			stats[r.ID] = r.Stats()
		}()
	}
	wg.Wait()
	if e.abort != nil {
		panic(e.abort)
	}
	return stats
}

// NewRanks builds a job's engine and ranks without running anything on
// them: the form for a caller that advances every rank itself, step by step,
// and issues each collective for all of them at once (CollectiveAll). Rank.Pool
// is available only if cfg.Pools is set; Rank.Stats and Rank.StatsInto give
// each rank's accounting.
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
	for _, s := range e.active {
		if s.done {
			return // its waiters are about to leave
		}
	}
	e.abort = e.deadlockReport()
	e.cond.Broadcast()
}

// deadlockReport describes the lowest open rendezvous once no rank can
// move: everyone left waits for ranks that will never join.
func (e *Engine) deadlockReport() string {
	open := e.active[0]
	for _, s := range e.active[1:] {
		if s.seq < open.seq {
			open = s
		}
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

// Compute advances the rank's clock by seconds of kernel time. Under the
// MPI backend, compute that overlaps in-flight communication is inflated by
// the interference factor.
func (r *Rank) Compute(seconds float64) {
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
	r.compute += seconds
}

// Prep charges framework pre/post-processing (flat-buffer packing, gradient
// averaging) to compute time, attributed to the given label.
func (r *Rank) Prep(label string, seconds float64) {
	r.now += seconds
	r.account(label, hasPrep).prep += seconds
}

// Async charges seconds of background work — a prefetching loader goroutine,
// a double-buffered staging copy — to a single per-rank background stream
// that runs concurrently with the compute clock. The work starts now, or
// when the previous Async operation finishes (one background thread, FIFO),
// and the returned Handle exposes on Wait only whatever outlasts the compute
// issued in the meantime. Busy time is recorded under label in CommBusy, so
// hidden-vs-exposed accounting works exactly as for collectives; unlike a
// collective it involves no rendezvous (the work is rank-local) and charges
// no call overhead.
func (r *Rank) Async(label string, seconds float64) Handle {
	if seconds < 0 {
		panic("cluster: negative async time")
	}
	start := r.now
	if r.asyncFree > start {
		start = r.asyncFree
	}
	finish := start + seconds
	r.asyncFree = finish
	r.account(label, hasBusy).busy += seconds
	return Handle{Label: label, Channel: -1, finish: finish}
}

// Collective issues one collective operation. payload carries this rank's
// contribution (a pointer to real data and/or receive buffers); lead runs
// once, on the last-arriving rank with that rank's arg, moving data between
// the payload records and returning the operation's virtual duration. The
// call returns a Handle for Wait; the moved data is already in place when
// Collective returns (the rendezvous is synchronous — only *time* is
// deferred to Wait). Under Blocking configs the wait happens before
// returning.
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
	return r.depart(label, ch, finish, dur)
}

// CollectiveAll issues one collective on every rank of a job at once, in
// rank order — how a caller that advances the ranks itself (NewRanks) does
// what R CollectiveOn calls meeting in a rendezvous do under Run: each
// rank's call overhead, channel pick, ready time and sequence number; the
// leader once, at the latest ready time; the finish on every rank (and,
// under Blocking, the wait). payloads[i] is rank i's payload and arg the
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
		h = r.depart(label, ch, finish, dur)
	}
	return h
}

// arrive is a collective's rank-local half before the rendezvous: the call
// overhead, the channel pick, and the time the channel can start it.
func (r *Rank) arrive(label string, channel int) (ch int, ready float64, seq int64) {
	cfg := &r.Eng.Cfg
	r.now += cfg.CallOverhead
	r.account(label, hasPrep|hasBusy).prep += cfg.CallOverhead
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

// depart is its half after: the channel is busy until finish, the duration
// counts as busy time, and a Blocking job waits at once.
func (r *Rank) depart(label string, ch int, finish, dur float64) Handle {
	r.commFree[ch] = finish
	r.account(label, hasBusy).busy += dur
	h := Handle{Label: label, Channel: ch, finish: finish}
	if r.Eng.Cfg.Blocking {
		r.Wait(h)
	}
	return h
}

// Wait blocks the compute stream until the collective completes, recording
// the exposed wait time under the handle's label. The zero Handle is a
// no-op.
func (r *Rank) Wait(h Handle) {
	if h.finish > r.now {
		r.account(h.Label, hasWait).wait += h.finish - r.now
		r.now = h.finish
	}
}

func barrierLead(any, []any, float64) float64 { return 0 }

// Barrier synchronizes all ranks' compute clocks (zero-duration collective)
// and waits immediately.
func (r *Rank) Barrier() {
	r.Wait(r.Collective("barrier", nil, nil, barrierLead))
}

// slotFor returns the rendezvous slot for sequence number seq, reusing a
// recycled slot (or allocating one, only until the free list warms up) when
// this rank is the first to arrive.
func (e *Engine) slotFor(seq int64, label string) *slot {
	for _, s := range e.active {
		if s.seq == seq {
			return s
		}
	}
	s := e.free
	if s != nil {
		e.free = s.next
		s.next = nil
	} else {
		s = &slot{
			payloads: make([]any, e.Cfg.Ranks),
			ready:    make([]float64, e.Cfg.Ranks),
		}
	}
	s.seq, s.label, s.arrived, s.done, s.finish, s.dur = seq, label, 0, false, 0, 0
	e.active = append(e.active, s)
	return s
}

// release clears a drained slot's payload references and recycles it.
func (e *Engine) release(s *slot) {
	for i := range s.payloads {
		s.payloads[i] = nil
	}
	last := len(e.active) - 1
	for i, a := range e.active {
		if a == s {
			e.active[i] = e.active[last]
			e.active[last] = nil
			e.active = e.active[:last]
			break
		}
	}
	s.next = e.free
	e.free = s
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
	s := e.slotFor(seq, label)
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
	finish, dur := s.finish, s.dur
	// Last rank out recycles the slot.
	s.arrived--
	if s.arrived == 0 {
		e.release(s)
	}
	return finish, dur
}

// lead runs a collective's leader from its start and returns the finish
// and the duration, stretched by the backend's slowdown.
func (e *Engine) lead(lead LeaderFunc, arg any, payloads []any, start float64) (finish, dur float64) {
	dur = lead(arg, payloads, start) * e.Cfg.CommSlowdown()
	return start + dur, dur
}

// ChargeContended prices a collective against the contention epoch and
// registers it there. start is the operation's virtual start (the
// rendezvous start the leader received), iso its isolated duration from
// the unchanged cost model (pre-CommSlowdown, i.e. exactly what the leader
// would have returned), and loads its aggregate per-link byte footprint
// (every phase summed, copy overhead included — what Scratch.Accumulate
// collected). topo supplies the link bandwidths. The return value replaces
// iso as the leader's result; the caller's CommSlowdown multiply then
// reproduces the registered finish time.
//
// Sharing discipline — causal residual-drain (work-conserving shared
// queue): each already-charged collective still in flight at start is
// assumed to drain its link bytes at a uniform rate across its own window,
// and the newcomer's bottleneck link additionally carries every such
// operation's residual bytes — the fraction of its load falling inside
// [start, its finish). The newcomer's duration becomes
//
//	iso + max over its links l of  Σ_f residual_f(l) / bandwidth(l)
//
// Earlier operations keep their already-charged finishes: their Waits may
// already have resolved, so retroactive stretching would break causality —
// instead the op that arrives second pays for the sharing. The discipline
// is deterministic (leaders run in global issue order: every rank blocks
// in each rendezvous, so collective k's leader always runs before
// k+1's; CollectiveAll issues them in that order) and bounded both ways: the result is ≥ iso (the residual term is
// non-negative) and each overlapping flight contributes at most its own
// isolated duration (its per-link bytes/bandwidth never exceed its phase
// times), so concurrent operations never finish later than they would
// serialized. Operations whose windows do not overlap — including
// everything on MPI's single in-order channel — are charged exactly iso.
//
// ChargeContended must only be called from leader context: leaders run one
// at a time (inside Run's rendezvous under e.mu, or from CollectiveAll's
// one caller), which is what makes the epoch safe to mutate without further
// locking.
func (e *Engine) ChargeContended(topo fabric.Topology, loads *fabric.LoadSet, start, iso float64) float64 {
	slow := e.Cfg.CommSlowdown()
	isoS := iso * slow
	// Drop flights that ended before this operation starts. (A later
	// charge on another channel can still start earlier in virtual time;
	// a flight pruned here that would have overlapped it slightly
	// under-counts that rare inversion, in exchange for a bounded epoch.)
	kept := e.inflight[:0]
	for _, f := range e.inflight {
		if f.finish <= start {
			f.loads.Reset()
			f.next = e.flightFree
			e.flightFree = f
			continue
		}
		kept = append(kept, f)
	}
	for i := len(kept); i < len(e.inflight); i++ {
		e.inflight[i] = nil
	}
	e.inflight = kept

	var delta float64
	for _, link := range loads.Links() {
		var resid float64
		for _, f := range e.inflight {
			if l := f.loads.Load(link); l > 0 {
				// Overlap window within f, as a fraction of f's drain.
				lo := start
				if f.start > lo {
					lo = f.start
				}
				resid += l * (f.finish - lo) / (f.finish - f.start)
			}
		}
		// Residual bytes drain at the backend's effective rate: CommSlowdown
		// models a backend that cannot saturate the wire, so in scaled time
		// every link runs at bandwidth/slow — for the queued residual just
		// like for the newcomer's own bytes.
		if d := resid * slow / topo.LinkBandwidth(link); d > delta {
			delta = d
		}
	}

	durS := isoS + delta
	if durS > 0 && len(loads.Links()) > 0 {
		f := e.flightFree
		if f != nil {
			e.flightFree = f.next
			f.next = nil
		} else {
			f = &flight{}
		}
		f.start, f.finish = start, start+durS
		f.loads.CopyFrom(loads)
		e.inflight = append(e.inflight, f)
	}
	return durS / slow
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
