package main

// adapter.go is the benchmark's one seam to the repository: every import of
// repro/internal/* and every call into those packages is in this file. The
// workloads are built here from public APIs only (DistConfig.Run, not the
// deprecated RunDistributed; nothing from internal/experiments), so an API
// change in the program leaves exactly this file to update. The runner,
// statistics, spans, calibration and suite code know nothing of the repo.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/embstore"
	"repro/internal/fabric"
	"repro/internal/gemm"
	"repro/internal/loss"
	"repro/internal/mlp"
	"repro/internal/optim"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// newInstance sets a workload up to the point of its first timed op:
// datasets, models, pools, workspaces and the untimed warm-up ops. With a
// tracer it also brackets the set-up calls.
func newInstance(o runOpts, tr *tracer) (instance, error) {
	switch o.workload {
	case "train-mlp":
		return newTrainInst(trainMLPSpec(o.quick), o, tr), nil
	case "train-emb":
		return newTrainInst(trainEmbSpec(o.quick), o, tr), nil
	case "dist-func4":
		return newDistInst(o, tr)
	case "sim-strong64":
		return newSimInst(o, tr)
	case "serve-func":
		return newServeInst(o, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// ---------------------------------------------------------------------------
// Small helpers shared by the workloads.

// timeIt returns the wall seconds of one call.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// medianOf returns the median wall seconds of reps calls after one
// untimed call.
func medianOf(reps int, f func()) float64 {
	f()
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timeIt(f)
	}
	return median(xs)
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sumOp adds the per-op self times of several span names.
func sumOp(self map[string][]float64, n int, names ...string) []float64 {
	out := make([]float64, n)
	for _, name := range names {
		for k, v := range self[name] {
			out[k] += v
		}
	}
	return out
}

// reps picks a repetition count: few in the smoke run.
func reps(quick bool, n int) int {
	if quick {
		return 2
	}
	return n
}

func emptyRegion(any, int, int, int) {}

// probeParRegion times an empty parallel region — dispatch and join — on
// the pool the single-socket kernels run on.
func probeParRegion(quick bool, rep *report) {
	k := 2000
	if quick {
		k = 50
	}
	w := par.Default.NumWorkers()
	t := medianOf(reps(quick, 5), func() {
		for i := 0; i < k; i++ {
			par.Default.ForNArg(w, emptyRegion, nil)
		}
	})
	rep.set("par.region_us", t/float64(k)*1e6)
}

// ---------------------------------------------------------------------------
// train-mlp and train-emb: real single-socket training.

// trainSpec is one single-socket training workload.
type trainSpec struct {
	cfg    core.Config
	n, bn  int
	lr     float32
	fused  bool // Trainer.FusedEmbedding
	stream bool // ClickLog through the prefetching BatchLoader; else data.Random, one batch reused
	warmup int  // untimed steps that end set-up
}

// trainMLPSpec is the legacy Fig7RaceFreeStep fixture rebuilt from public
// APIs: Small with rows scaled 1/64, N=128, BN=16, uniform random data,
// race-free update, one batch reused. ≥ 90 % of its step is the blocked GEMMs.
func trainMLPSpec(quick bool) trainSpec {
	s := trainSpec{cfg: core.Small.Scaled(1.0 / 64), n: 128, bn: 16, lr: 0.1, warmup: 3}
	if quick {
		s.cfg = core.Small.Scaled(1.0 / 4096)
		s.cfg.DenseIn, s.cfg.BotHidden, s.cfg.TopHidden = 64, []int{64}, []int{64, 64}
		s.n, s.warmup = 32, 1
	}
	return s
}

// trainEmbSpec is the embedding-bound counterpart: 8 tables × 250 000 rows
// × E=64 (512 MB, far beyond any cache), 50 lookups a bag, N=2048, MLPs
// kept to 16→64→64 and →64→1 so GEMMs stay under 5 % of the step, Zipf
// click-log data streamed by the prefetching loader, fused update.
func trainEmbSpec(quick bool) trainSpec {
	s := trainSpec{n: 2048, bn: 16, lr: 0.1, fused: true, stream: true, warmup: 3}
	rows, lookups := 250_000, 50
	if quick {
		rows, lookups, s.n, s.warmup = 2_000, 8, 256, 1
	}
	s.cfg = core.Config{
		Name: "EmbBound", MB: s.n, GlobalMB: s.n, LocalMB: s.n,
		Lookups: lookups, Tables: 8, EmbDim: 64,
		DenseIn: 16, BotHidden: []int{64}, TopHidden: []int{64},
	}
	s.cfg.Rows = make([]int, s.cfg.Tables)
	for i := range s.cfg.Rows {
		s.cfg.Rows[i] = rows
	}
	return s
}

// dataset builds the spec's data source from the benchmark seed.
func (s trainSpec) dataset(seed int64) data.Dataset {
	if s.stream {
		return data.NewClickLog(seed, s.cfg.DenseIn, s.cfg.Rows, s.cfg.Lookups)
	}
	return &data.Random{Seed: seed, D: s.cfg.DenseIn, Tables: s.cfg.Tables,
		Rows: s.cfg.Rows[0], Lookups: s.cfg.Lookups}
}

// trainInst is a set-up single-socket trainer.
type trainInst struct {
	spec  trainSpec
	seed  int64
	quick bool

	ds data.Dataset
	m  *core.Model
	tr *core.Trainer
	ld *data.ShardedLoader // nil when one batch is reused
	mb *data.MiniBatch     // the reused batch

	steps     int       // Trainer steps taken so far; the twin replays them
	firstLoss float64   // loss of step 0, on the untrained model
	losses    []float64 // losses of the timed ops
	modelInit float64   // seconds core.NewModel took
}

func newTrainInst(spec trainSpec, o runOpts, tr *tracer) *trainInst {
	ti := &trainInst{spec: spec, seed: o.seed, quick: o.quick, losses: make([]float64, 0, 1<<14)}
	ti.ds = spec.dataset(o.seed)
	s := tr.begin("core.NewModel")
	ti.modelInit = timeIt(func() { ti.m = core.NewModel(spec.cfg, spec.bn, o.seed) })
	tr.end(s)
	s = tr.begin("core.NewTrainer")
	ti.tr = core.NewTrainer(ti.m, par.Default, embedding.RaceFree, spec.lr, core.FP32)
	ti.tr.FusedEmbedding = spec.fused
	tr.end(s)
	if spec.stream {
		s = tr.begin("data.NewBatchLoader")
		ti.ld = data.NewBatchLoader(ti.ds, spec.n, 0)
		tr.end(s)
	} else {
		s = tr.begin("data.Dataset.Batch")
		ti.mb = ti.ds.Batch(0, spec.n)
		tr.end(s)
	}
	s = tr.begin("warm-up")
	for i := 0; i < spec.warmup; i++ {
		mb, _ := ti.next()
		l := ti.tr.Step(mb)
		if ti.steps == 0 {
			ti.firstLoss = l
		}
		ti.steps++
	}
	tr.end(s)
	return ti
}

// next returns the batch of the next step and how long the loop blocked
// for it.
func (ti *trainInst) next() (*data.MiniBatch, float64) {
	if ti.ld == nil {
		return ti.mb, 0
	}
	t0 := time.Now()
	mb := ti.ld.Next().Local
	return mb, time.Since(t0).Seconds()
}

// batchAt regenerates the batch step i trained on (the data streams are
// counter-based, so any batch index can be materialised again).
func (ti *trainInst) batchAt(i int) *data.MiniBatch {
	if ti.ld == nil {
		return ti.mb
	}
	return ti.ds.Batch(i, ti.spec.n)
}

// op is one Trainer.Step, including ld.Next() where a loader is in the loop.
func (ti *trainInst) op(tr *tracer) opStat {
	tr.nextOp()
	s := tr.begin("core.Trainer.Step")
	mb, _ := ti.next()
	l := ti.tr.Step(mb)
	tr.end(s)
	ti.steps++
	ti.losses = append(ti.losses, l)
	st := opStat{units: 1, samples: mb.N}
	if !finite(l) {
		st.failed = 1
	}
	return st
}

func (ti *trainInst) verify(rep *report) {
	ok := len(ti.losses) > 0
	for _, l := range ti.losses {
		ok = ok && finite(l)
	}
	rep.check("loss-finite", ok, "%d losses", len(ti.losses))
	// Training must have lowered the loss. Like is compared with like: the
	// trained model's loss on the batch of step 0 against the untrained
	// model's loss on that batch. (Quarter against quarter of one window is
	// reported, not checked: on train-emb the streamed batches differ from one
	// another by as much as 40 steps of training gain, so any comparison
	// across batches fails a healthy run every few dozen seeds.)
	q := (len(ti.losses) + 3) / 4
	first, last := mean(ti.losses[:q]), mean(ti.losses[len(ti.losses)-q:])
	trained := ti.evalLoss(ti.batchAt(0))
	rep.check("loss-decreases", trained < ti.firstLoss,
		"loss on step 0's batch: %.6f untrained, %.6f after %d steps (mean loss of the window's first quarter %.6f, last quarter %.6f)",
		ti.firstLoss, trained, ti.steps, first, last)
}

// evalLoss is the model's loss on one batch, forward only: nothing is updated.
func (ti *trainInst) evalLoss(mb *data.MiniBatch) float64 {
	embOut := make([][]float32, len(ti.m.Tables))
	for i, tab := range ti.m.Tables {
		embOut[i] = make([]float32, mb.N*tab.E)
		tab.Forward(par.Default, mb.Sparse[i], embOut[i])
	}
	logits := ti.m.ForwardDense(par.Default, mb.Dense, embOut)
	return loss.BCEWithLogits(logits, mb.Labels, make([]float32, mb.N))
}

func (ti *trainInst) close() {
	if ti.ld != nil {
		ti.ld.Close()
	}
}

// twin is the decomposed step: a second model with the trainer's seed,
// stepped by the benchmark through the same public calls Trainer.Step makes,
// in the same order, into buffers the benchmark owns — so each call can be
// bracketed by a span. Its loss must equal the trainer's bit for bit.
type twin struct {
	spec trainSpec
	m    *core.Model
	pool *par.Pool
	sgd  []*optim.SGD // weights then bias per layer, bottom MLP first

	embOut, dEmb, embDW            [][]float32
	botIn, topIn, dLogit, dBotActs *tensor.Acts
	botRows, logitsD, dInter       *tensor.Dense
	zD, dzD, dBotD                 tensor.Dense
}

func newTwin(spec trainSpec, seed int64) *twin {
	cfg := spec.cfg
	t := &twin{spec: spec, m: core.NewModel(cfg, spec.bn, seed), pool: par.Default}
	for _, m := range []*mlp.MLP{t.m.Bot, t.m.Top} {
		for _, l := range m.Layers {
			t.sgd = append(t.sgd, optim.NewSGD(l.W.Data), optim.NewSGD(l.Bias))
		}
	}
	n, e, od := spec.n, cfg.EmbDim, t.m.Inter.OutputDim()
	rows := func(count, length int) [][]float32 {
		r := make([][]float32, count)
		for i := range r {
			r[i] = make([]float32, length)
		}
		return r
	}
	t.embOut, t.dEmb = rows(cfg.Tables, n*e), rows(cfg.Tables, n*e)
	if !spec.fused {
		t.embDW = rows(cfg.Tables, n*cfg.Lookups*e)
	}
	t.botRows = tensor.NewDense(n, e)
	t.logitsD = tensor.NewDense(n, 1)
	t.dInter = tensor.NewDense(n, od)
	t.zD = *tensor.NewDense(n, od)
	t.dzD = *tensor.NewDense(n, 1)
	t.dBotD = *tensor.NewDense(n, e)
	return t
}

// step is Trainer.Step for FP32 with the race-free strategy, decomposed:
// embedding forward → pack → bottom MLP → interaction → top MLP → loss →
// top backward → interaction backward → bottom backward → embedding update
// → SGD. The lazily cached weight transposes are rebuilt inside the MLP
// backward spans (tensor.transpose_ms prices them in isolation).
func (t *twin) step(tr *tracer, mb *data.MiniBatch) float64 {
	tr.nextOp()
	root := tr.begin("step")
	m, p, n, bn := t.m, t.pool, mb.N, t.spec.bn
	e, od := m.Cfg.EmbDim, m.Inter.OutputDim()

	for i, tab := range m.Tables {
		s := tr.begin("embedding.fwd")
		tab.Forward(p, mb.Sparse[i], t.embOut[i])
		tr.end(s)
	}

	s := tr.begin("tensor.pack")
	botIn := tensor.EnsureActs(&t.botIn, n, mb.Dense.Cols, bn, mlp.BlockPick(mb.Dense.Cols, 64))
	botIn.PackFrom(mb.Dense)
	tr.end(s)
	s = tr.begin("mlp.bot_fwd")
	botActs := m.Bot.Forward(p, botIn)
	tr.end(s)
	s = tr.begin("tensor.unpack")
	botActs.UnpackInto(t.botRows)
	tr.end(s)

	s = tr.begin("interaction.fwd")
	m.Inter.Forward(p, n, t.botRows.Data, t.embOut, t.zD.Data)
	tr.end(s)

	s = tr.begin("tensor.pack")
	topIn := tensor.EnsureActs(&t.topIn, n, od, bn, mlp.BlockPick(od, 64))
	topIn.PackFrom(&t.zD)
	tr.end(s)
	s = tr.begin("mlp.top_fwd")
	logits := m.Top.Forward(p, topIn)
	tr.end(s)
	s = tr.begin("tensor.unpack")
	logits.UnpackInto(t.logitsD)
	tr.end(s)

	s = tr.begin("loss.bce")
	l := loss.BCEWithLogits(t.logitsD.Data, mb.Labels, t.dzD.Data)
	tr.end(s)

	s = tr.begin("tensor.pack")
	dLogit := tensor.EnsureActs(&t.dLogit, n, 1, bn, 1)
	dLogit.PackFrom(&t.dzD)
	tr.end(s)
	s = tr.begin("mlp.top_bwd")
	dInterActs := m.Top.Backward(p, dLogit, true)
	tr.end(s)
	s = tr.begin("tensor.unpack")
	dInterActs.UnpackInto(t.dInter)
	tr.end(s)

	s = tr.begin("interaction.bwd")
	m.Inter.Backward(p, t.dInter.Data, t.dBotD.Data, t.dEmb)
	tr.end(s)

	s = tr.begin("tensor.pack")
	dBotActs := tensor.EnsureActs(&t.dBotActs, n, e, bn, mlp.BlockPick(e, 64))
	dBotActs.PackFrom(&t.dBotD)
	tr.end(s)
	s = tr.begin("mlp.bot_bwd")
	m.Bot.Backward(p, dBotActs, false)
	tr.end(s)

	for i, tab := range m.Tables {
		b := mb.Sparse[i]
		if t.spec.fused {
			s = tr.begin("embedding.fused_update")
			tab.FusedBackwardUpdate(p, b, t.dEmb[i], t.spec.lr)
		} else {
			s = tr.begin("embedding.bwd_update")
			dW := t.embDW[i][:b.NumLookups()*tab.E]
			tab.Backward(p, b, t.dEmb[i], dW)
			tab.Update(p, embedding.RaceFree, b, dW, t.spec.lr)
		}
		tr.end(s)
	}

	s = tr.begin("optim.sgd")
	i := 0
	for _, mm := range [...]*mlp.MLP{m.Bot, m.Top} {
		for _, ly := range mm.Layers {
			t.sgd[i].Step(ly.DW.Data, t.spec.lr)
			t.sgd[i+1].Step(ly.DBias, t.spec.lr)
			i += 2
		}
		mm.InvalidateTransposes()
	}
	tr.end(s)
	tr.end(root)
	return l
}

// traced runs rounds of {Trainer.Step, decomposed step} on the same batch
// — the decomposed step traced on two rounds out of three — asserting
// bit-equal losses, then derives the single-socket ledger from the spans
// and runs the isolated probes.
func (ti *trainInst) traced(tr *tracer, seconds float64, host *hostInfo, rep *report) opStat {
	spec := ti.spec
	// With a loader in the loop its producer generates the next batch on the
	// same two cores while the step runs. A few real ops measure how long
	// the loop blocks in ld.Next(); the rounds below then feed both models
	// synchronously generated batches, so the trainer's step and the
	// decomposed one are timed under the same, uncontended, conditions.
	var tot opStat
	var waits []float64
	for k := 0; ti.ld != nil && k < reps(ti.quick, 6); k++ {
		tr.nextOp()
		s := tr.begin("core.Trainer.Step (loader in the loop)")
		mb, wait := ti.next()
		l := ti.tr.Step(mb)
		tr.end(s)
		ti.steps++
		ti.losses = append(ti.losses, l)
		waits = append(waits, wait)
		tot.units++
		tot.samples += mb.N
	}

	s := tr.begin("twin: core.NewModel + replay")
	tw := newTwin(spec, ti.seed)
	for i := 0; i < ti.steps; i++ {
		tw.step(nil, ti.batchAt(i))
	}
	tr.end(s)

	var stepT, twinOff, twinOn []float64
	scratch := &data.MiniBatch{}
	if ti.ld != nil {
		// Size the batch buffers before allocations are counted: growing
		// them is the benchmark's doing, not the step's.
		ti.ds.FillRange(ti.steps, spec.n, 0, spec.n, scratch)
	}
	mismatch := 0
	m0 := mallocCount()
	start := time.Now()
	for k := 0; k < 6 || time.Since(start).Seconds() < seconds; k++ {
		mb := ti.mb
		if ti.ld != nil {
			mb = scratch
			ti.ds.FillRange(ti.steps, spec.n, 0, spec.n, mb)
		}
		var lA, lB float64
		stepT = append(stepT, timeIt(func() { lA = ti.tr.Step(mb) }))
		ti.steps++
		ti.losses = append(ti.losses, lA)
		if k%3 == 0 {
			twinOff = append(twinOff, timeIt(func() { lB = tw.step(nil, mb) }))
		} else {
			twinOn = append(twinOn, timeIt(func() { lB = tw.step(tr, mb) }))
		}
		if math.Float64bits(lA) != math.Float64bits(lB) {
			mismatch++
		}
		tot.units++
		tot.samples += mb.N
		if !finite(lA) {
			tot.failed++
		}
		if ti.quick && k >= 2 {
			break
		}
	}
	rounds := len(stepT)
	rep.setAllocs(mallocCount()-m0, uint64(2*rounds))
	rep.check("decomposed-loss-bit-equal", mismatch == 0,
		"%d of %d rounds differ between Trainer.Step and the decomposed step", mismatch, rounds)

	stepP50 := median(stepT)
	rep.set("bench.decomp_gap_pct", (median(twinOff)-stepP50)/stepP50*100)
	rep.set("bench.trace_overhead_pct", (median(twinOn)-median(twinOff))/median(twinOff)*100)
	pct, tail, n := tailPercentile(stepT)
	rep.set("core.step_ms_tail", tail*1e3)
	rep.note("core.step_ms_tail", "p%g of %d Trainer.Step samples (p0 = maximum: too few samples for a tail)", pct, n)
	rep.set("core.model_init_s", ti.modelInit)
	rep.set("data.loader_wait_ms", median(waits)*1e3)

	// The ledger: per traced op, self time by span name; medians over ops.
	wall, self := opTable(tr.spans, "step")
	ops := len(wall)
	ms := func(names ...string) float64 { return median(sumOp(self, ops, names...)) * 1e3 }
	closure := 0.0
	for k := range wall {
		var sum float64
		for _, v := range self {
			sum += v[k]
		}
		closure = math.Max(closure, math.Abs(sum-wall[k])/wall[k])
	}
	rep.check("ledger-closes", ops > 0 && closure < 1e-9,
		"self times + residual vs decomposed step wall: worst relative gap %.2g over %d traced steps", closure, ops)
	resid := make([]float64, ops)
	for k := range resid {
		resid[k] = self["step"][k] / wall[k] * 100
	}
	rep.set("core.step_residual_pct", median(resid))
	rep.set("tensor.pack_unpack_ms", ms("tensor.pack", "tensor.unpack"))
	rep.set("mlp.top_fwd_ms", ms("mlp.top_fwd"))
	rep.set("mlp.top_bwd_ms", ms("mlp.top_bwd"))
	rep.set("mlp.bot_fwd_ms", ms("mlp.bot_fwd"))
	rep.set("mlp.bot_bwd_ms", ms("mlp.bot_bwd"))
	rep.set("interaction.fwd_ms", ms("interaction.fwd"))
	rep.set("interaction.bwd_ms", ms("interaction.bwd"))
	rep.set("loss.bce_ms", ms("loss.bce"))
	rep.set("optim.sgd_ms", ms("optim.sgd"))
	cfg := spec.cfg
	fwd := ms("embedding.fwd")
	rep.set("embedding.fwd_ms", fwd)
	fwdGBs := perfmodel.EmbeddingFwdBytes(cfg.Tables, spec.n, cfg.Lookups, cfg.EmbDim) / (fwd / 1e3) / 1e9
	rep.set("embedding.fwd_gbs", fwdGBs)
	if host.TriadGBs > 0 {
		rep.set("embedding.fwd_pct_triad", fwdGBs/host.TriadGBs*100)
	}
	updBytes := perfmodel.EmbeddingUpdBytes(cfg.Tables, spec.n, cfg.Lookups, cfg.EmbDim)
	if spec.fused {
		upd := ms("embedding.fused_update")
		rep.set("embedding.fused_update_ms", upd)
		rep.set("embedding.fused_update_gbs", updBytes/(upd/1e3)/1e9)
	} else {
		rep.set("embedding.bwd_update_ms", ms("embedding.bwd_update"))
	}

	// Isolated probes at this workload's shapes.
	s = tr.begin("probes")
	mlpTotal := ms("mlp.top_fwd", "mlp.top_bwd", "mlp.bot_fwd", "mlp.bot_bwd") / 1e3
	gemmTotal := tw.probeLayerGEMMs(ti.quick)
	rep.set("mlp.non_gemm_share", 1-gemmTotal/mlpTotal)
	rep.set("tensor.transpose_ms", tw.probeTransposes(ti.quick)*1e3)
	fwdD, bwdD := tw.probeDense(ti.batchAt(0), ti.quick)
	rep.set("core.fwd_dense_ms", fwdD*1e3)
	rep.set("core.bwd_dense_ms", bwdD*1e3)
	rep.set("data.batch_gen_ms", medianOf(reps(ti.quick, 5), func() {
		ti.ds.FillRange(7, spec.n, 0, spec.n, scratch)
	})*1e3)
	probeParRegion(ti.quick, rep)
	if !spec.stream {
		probeGEMM(host, ti.quick, rep)
	}
	tr.end(s)
	return tot
}

// probeLayerGEMMs times, for every MLP layer at this workload's shapes, the
// GEMM calls the layer makes (the skip-zero variants where the layer picks
// them, on inputs half zero like a ReLU output) and returns their summed
// median seconds per step.
func (t *twin) probeLayerGEMMs(quick bool) float64 {
	rng := rand.New(rand.NewSource(1))
	fill := func(d []float32, relu bool) {
		for i := range d {
			d[i] = rng.Float32()*2 - 1
			if relu && d[i] < 0 {
				d[i] = 0
			}
		}
	}
	n, p, r := t.spec.n, t.pool, reps(quick, 3)
	var total float64
	for mi, m := range []*mlp.MLP{t.m.Bot, t.m.Top} {
		for li, l := range m.Layers {
			x := tensor.NewActs(n, l.C, l.BN, l.BC)
			fill(x.Data, l.SparseInput)
			y := tensor.NewActs(n, l.K, l.BN, l.BK)
			dy := tensor.NewActs(n, l.K, l.BN, l.BK)
			fill(dy.Data, l.Act == mlp.ReLU)
			dw := tensor.NewWeights(l.K, l.C, l.BK, l.BC)
			if l.SparseInput {
				total += medianOf(r, func() { gemm.ForwardSkipZeros(p, l.W, x, y) })
				total += medianOf(r, func() { gemm.BackwardWeightsSkipZeros(p, dy, x, dw) })
			} else {
				total += medianOf(r, func() { gemm.Forward(p, l.W, x, y) })
				total += medianOf(r, func() { gemm.BackwardWeights(p, dy, x, dw) })
			}
			if mi == 0 && li == 0 {
				continue // the first bottom layer needs no input gradient
			}
			wT := l.W.TransposeBlocked()
			dx := tensor.NewActs(n, l.C, l.BN, l.BC)
			if l.Act == mlp.ReLU {
				total += medianOf(r, func() { gemm.BackwardDataSkipZeros(p, wT, dy, dx) })
			} else {
				total += medianOf(r, func() { gemm.BackwardData(p, wT, dy, dx) })
			}
		}
	}
	return total
}

// probeTransposes times Weights.TransposeBlockedInto over every layer: the
// re-transposition each step pays after the SGD invalidates the caches.
func (t *twin) probeTransposes(quick bool) float64 {
	var ws, wTs []*tensor.Weights
	for _, m := range []*mlp.MLP{t.m.Bot, t.m.Top} {
		for _, l := range m.Layers {
			ws = append(ws, l.W)
			wTs = append(wTs, l.W.TransposeBlocked())
		}
	}
	return medianOf(reps(quick, 5), func() {
		for i, w := range ws {
			w.TransposeBlockedInto(wTs[i])
		}
	})
}

// probeDense times Model.ForwardDense and Model.BackwardDense on the twin
// (no weights change: neither call updates parameters).
func (t *twin) probeDense(mb *data.MiniBatch, quick bool) (fwd, bwd float64) {
	for i, tab := range t.m.Tables {
		tab.Forward(t.pool, mb.Sparse[i], t.embOut[i])
	}
	dz := make([]float32, mb.N)
	var fs, bs []float64
	for i := 0; i < reps(quick, 5)+1; i++ {
		var logits []float32
		f := timeIt(func() { logits = t.m.ForwardDense(t.pool, mb.Dense, t.embOut) })
		loss.BCEWithLogits(logits, mb.Labels, dz)
		b := timeIt(func() { t.m.BackwardDense(t.pool, dz) })
		if i > 0 {
			fs, bs = append(fs, f), append(bs, b)
		}
	}
	return median(fs), median(bs)
}

// probeGEMM times the three blocked GEMMs at the paper's large layer shape
// (N=128, C=K=1024, bn=16) and the forward at the serving shape (N=32,
// bn=1), in GFLOP/s from the computed 2·N·C·K; the forward is also set
// against the multiply-add roof measured in this run.
func probeGEMM(host *hostInfo, quick bool, rep *report) {
	n, ck, r := 128, 1024, reps(quick, 7)
	if quick {
		ck = 128
	}
	rng := rand.New(rand.NewSource(2))
	rnd := func(d []float32) {
		for i := range d {
			d[i] = rng.Float32()*2 - 1
		}
	}
	p := par.Default
	w := tensor.NewWeights(ck, ck, 64, 64)
	rnd(w.Data)
	gf := func(n int, sec float64) float64 { return 2 * float64(n) * float64(ck) * float64(ck) / sec / 1e9 }

	x1, y1 := tensor.NewActs(32, ck, 1, 64), tensor.NewActs(32, ck, 1, 64)
	rnd(x1.Data)
	rep.set("gemm.fwd_bn1_gflops", gf(32, medianOf(r, func() { gemm.Forward(p, w, x1, y1) })))
	if host == nil {
		return // serving asks for the bn=1 shape only
	}
	x, y := tensor.NewActs(n, ck, 16, 64), tensor.NewActs(n, ck, 16, 64)
	dy, dx := tensor.NewActs(n, ck, 16, 64), tensor.NewActs(n, ck, 16, 64)
	dw, wT := tensor.NewWeights(ck, ck, 64, 64), w.TransposeBlocked()
	rnd(x.Data)
	rnd(dy.Data)
	fwd := gf(n, medianOf(r, func() { gemm.Forward(p, w, x, y) }))
	rep.set("gemm.fwd_gflops", fwd)
	rep.set("gemm.bwd_data_gflops", gf(n, medianOf(r, func() { gemm.BackwardData(p, wT, dy, dx) })))
	rep.set("gemm.bwd_weights_gflops", gf(n, medianOf(r, func() { gemm.BackwardWeights(p, dy, x, dw) })))
	if host.FMAGflops > 0 {
		rep.set("gemm.fwd_pct_fma_roof", fwd/host.FMAGflops*100)
	}
}

// ---------------------------------------------------------------------------
// Shared by the two distributed workloads.

var cclAlltoall = core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend}

const hostLinkBW = 12.5e9 // the OPA fat-tree's host link, bytes/s

func noopLead(any, []any, float64) float64 { return 0 }

// commPlan computes, from the config alone, how many collectives one rank
// issues per iteration under the default bucketed schedule (two embedding
// alltoalls plus one allreduce per gradient bucket) and the bytes it
// contributes to them.
func commPlan(cfg core.Config, ranks, globalN int) (calls int, mb float64) {
	calls = 2
	for _, sizes := range [][]int{cfg.TopSizes(), cfg.BotSizes()} {
		layerBytes := make([]float64, len(sizes)-1)
		for i := range layerBytes {
			layerBytes[i] = core.MLPLayerGradBytes(sizes, i)
		}
		calls += len(comm.PlanBuckets(layerBytes, core.DefaultBucketBytes).Buckets)
	}
	bytes := cfg.AllreduceBytes() + 2*cfg.AlltoallBytes(globalN)/float64(ranks)
	return calls, bytes / 1e6
}

// probeCollective returns the host µs one empty rendezvous (Collective +
// Wait, no payload) costs at the given rank count.
func probeCollective(ranks int, pools *cluster.Pools, quick bool) float64 {
	k := 400
	if quick {
		k = 20
	}
	cc := cluster.Config{Ranks: ranks, Topo: fabric.NewPrunedFatTree(ranks, hostLinkBW),
		Socket: perfmodel.CLX8280, Backend: cluster.CCLBackend, Pools: pools}
	t := medianOf(reps(quick, 3), func() {
		cluster.Run(cc, func(r *cluster.Rank) {
			for i := 0; i < k; i++ {
				r.Wait(r.Collective("probe", nil, nil, noopLead))
			}
		})
	})
	return t / float64(k) * 1e6
}

// ---------------------------------------------------------------------------
// dist-func4: real hybrid-parallel training on four rank goroutines.

type distInst struct {
	quick bool
	seed  int64
	run   core.Config
	dc    core.DistConfig
	pools *cluster.Pools

	ops        int
	losses     []float64 // mean per-iteration loss of the first op
	lossDrift  bool      // a later op's losses differed
	virtIterMs float64
	virtDrift  bool
	runErr     error
	gap        *float64 // lossGap, once computed
}

// distRunCfg is the 26-table mini model the ranks really train: MLPerf's
// layer counts (3 bottom, 4 top — prepareBuckets panics on a mismatch) at
// widths and row counts this host can step in ~150 ms.
func distRunCfg(quick bool) (core.Config, int, int) {
	scale, e, globalN, iters := 1.0/1024, 32, 1024, 10
	if quick {
		scale, e, globalN, iters = 1.0/65536, 16, 64, 2
	}
	return core.Config{
		Name: "MLPerf-mini", MB: globalN, GlobalMB: globalN, LocalMB: globalN / 4,
		Lookups: 1, Tables: 26, EmbDim: e, Rows: data.ScaleRows(data.CriteoTBRows, scale),
		DenseIn: 13, BotHidden: []int{128, 64}, TopHidden: []int{128, 128, 64},
	}, globalN, iters
}

func newDistInst(o runOpts, tr *tracer) (*distInst, error) {
	di := &distInst{quick: o.quick, seed: o.seed}
	var globalN, iters int
	di.run, globalN, iters = distRunCfg(o.quick)
	s := tr.begin("cluster.NewPools + core.NewDistWorkspaces")
	di.pools = cluster.NewPools()
	di.dc = core.DistConfig{
		Cfg: core.MLPerf, RunCfg: &di.run, Ranks: 4, GlobalN: globalN, Iters: iters,
		Variant: cclAlltoall, Topo: fabric.NewPrunedFatTree(4, hostLinkBW), Socket: perfmodel.CLX8280,
		Loader: core.LoaderSharded, EmbCacheBytes: 1 << 20, ColdTierBW: core.DefaultColdTierBW,
		Dataset: data.NewClickLog(o.seed, di.run.DenseIn, di.run.Rows, di.run.Lookups),
		Seed:    o.seed, LR: 0.5,
		Pools: di.pools, Workspaces: core.NewDistWorkspaces(),
	}
	tr.end(s)
	// One short untimed Run sizes the per-rank workspaces, loader buffers
	// and rendezvous slots; a full-length warm-up would triple set-up.
	s = tr.begin("warm-up: core.DistConfig.Run (2 iterations)")
	warm := di.dc
	warm.Iters = 2
	_, err := warm.Run()
	tr.end(s)
	if err != nil {
		di.pools.Close()
		return nil, fmt.Errorf("dist-func4 warm-up: %w", err)
	}
	return di, nil
}

// op is one DistConfig.Run of Iters iterations.
func (di *distInst) op(tr *tracer) opStat {
	tr.nextOp()
	s := tr.begin("core.DistConfig.Run")
	res, err := di.dc.Run()
	tr.end(s)
	iters := di.dc.Iters
	st := opStat{units: iters, samples: iters * di.dc.GlobalN}
	if err != nil {
		di.runErr = err
		st.failed = iters
		return st
	}
	ls := res.MeanLosses()
	for _, l := range ls {
		if !finite(l) {
			st.failed++
		}
	}
	if di.ops == 0 {
		di.losses, di.virtIterMs = ls, res.IterSeconds*1e3
	} else {
		for i, l := range ls {
			if math.Float64bits(l) != math.Float64bits(di.losses[i]) {
				di.lossDrift = true
			}
		}
		if res.IterSeconds*1e3 != di.virtIterMs {
			di.virtDrift = true
		}
	}
	di.ops++
	return st
}

// singleSocketLosses trains the same mini model on one socket over the
// same global batches.
func (di *distInst) singleSocketLosses() []float64 {
	m := core.NewModel(di.run, 16, di.seed)
	t := core.NewTrainer(m, par.Default, embedding.RaceFree, di.dc.LR, core.FP32)
	out := make([]float64, di.dc.Iters)
	for i := range out {
		out[i] = t.Step(di.dc.Dataset.Batch(i, di.dc.GlobalN))
	}
	return out
}

func (di *distInst) verify(rep *report) {
	rep.check("run-ok", di.runErr == nil && di.ops > 0, "%d runs, error: %v", di.ops, di.runErr)
	if di.ops == 0 || di.runErr != nil {
		return
	}
	rep.check("loss-identical-across-ops", !di.lossDrift, "%d ops", di.ops)
	rep.check("virt-identical-across-ops", !di.virtDrift, "virt_iter_ms %v", di.virtIterMs)
	gap := di.lossGap()
	rep.check("loss-matches-single-socket", gap <= 1e-6,
		"largest |mean rank loss - single-socket loss| over %d iterations: %.3g (limit 1e-6)", len(di.losses), gap)
}

// lossGap is the largest distance between the run's mean per-iteration loss
// and a single-socket Trainer's on the same global batches (computed once).
func (di *distInst) lossGap() float64 {
	if di.gap == nil {
		ref := di.singleSocketLosses()
		gap := 0.0
		if len(ref) != len(di.losses) {
			gap = math.Inf(1)
		}
		for i, l := range di.losses {
			gap = math.Max(gap, math.Abs(l-ref[i]))
		}
		di.gap = &gap
	}
	return *di.gap
}

func (di *distInst) close() { di.pools.Close() }

func (di *distInst) traced(tr *tracer, seconds float64, host *hostInfo, rep *report) opStat {
	// Run() walls at the full iteration count come from the traced window.
	tot, walls := tracedOps(di, tr, seconds/2, di.quick, rep)
	rep.set("virt_iter_ms", di.virtIterMs)
	if di.ops > 0 && di.runErr == nil {
		rep.set("core.dist_loss_gap", di.lossGap())
	}

	s := tr.begin("probes")
	defer tr.end(s)
	// Differencing a 1-iteration Run against the full one separates the
	// per-run cost (model build, loaders, goroutines) from the marginal
	// iteration.
	one := di.dc
	one.Iters = 1
	t1 := medianOf(reps(di.quick, 4), func() { _, _ = one.Run() })
	tN, n := median(walls), float64(di.dc.Iters)
	marginal := (tN - t1) / (n - 1)
	rep.set("core.dist_iter_marginal_ms", marginal*1e3)
	rep.set("core.dist_run_fixed_ms", (t1-marginal)*1e3)

	di.probeEmbstore(rep)
	di.probeLoader(rep)
	rep.set("cluster.collective_us_4r", probeCollective(4, di.pools, di.quick))
	di.probeCommCopies(rep)
	probeParRegion(di.quick, rep)
	calls, mb := commPlan(di.dc.Cfg, di.dc.Ranks, di.dc.GlobalN)
	rep.set("comm.calls_per_iter", float64(calls))
	rep.set("comm.bytes_per_iter", mb)
	return tot
}

// probeEmbstore replays rank 0's batches through a tiered store over its
// owned tables at the workload's cache budget: host time of Store.Forward
// and Store.Update per iteration, the measured hit rate and the analytic
// one the timing mode charges (at the same shape, budget and skew).
func (di *distInst) probeEmbstore(rep *report) {
	dc := di.dc
	owned := core.LocalTables(di.run, 0, dc.Ranks)
	m := core.NewModelShard(di.run, 16, dc.Seed, 0, dc.Ranks)
	tabs := make([]*embedding.Table, len(owned))
	rows := make([]int, len(owned))
	for li, t := range owned {
		tabs[li], rows[li] = m.Tables[t], di.run.Rows[t]
	}
	st, err := embstore.New(dc.EmbCacheBytes, tabs)
	if err != nil {
		rep.check("embstore-new", false, "%v", err)
		return
	}
	ld := data.NewShardedLoader(data.LoaderConfig{DS: dc.Dataset, GlobalN: dc.GlobalN, Rank: 0, Ranks: dc.Ranks, Owned: owned})
	defer ld.Close()
	e := di.run.EmbDim
	out := make([]float32, dc.GlobalN*e)
	dOut := make([]float32, dc.GlobalN*e)
	for i := range dOut {
		dOut[i] = 1e-3
	}
	var dW []float32
	var fwd, upd []float64
	for it := 0; it < dc.Iters; it++ {
		rb := ld.Next()
		var f, u float64
		for li, tab := range tabs {
			b := rb.Owned[li]
			f += timeIt(func() { st.Forward(li, b, out) })
			if need := b.NumLookups() * e; cap(dW) < need {
				dW = make([]float32, need)
			}
			g := dW[:b.NumLookups()*e]
			tab.Backward(par.Default, b, dOut, g)
			u += timeIt(func() { st.Update(li, b, g, dc.LR) })
		}
		fwd, upd = append(fwd, f), append(upd, u)
	}
	iters := float64(dc.Iters)
	rep.set("embstore.fwd_ms", median(fwd)*1e3)
	rep.set("embstore.update_ms", median(upd)*1e3)
	rep.set("embstore.hit_rate", st.Stats.HitRate())
	rep.set("embstore.hit_rate_model", embstore.HitRate(dc.EmbCacheBytes, e, rows, core.DefaultEmbSkew))
	rep.set("embstore.evictions_per_iter", float64(st.Stats.Evictions)/iters)
	rep.set("embstore.writebacks_per_iter", float64(st.Stats.Writebacks)/iters)
}

// probeLoader times steady-state ShardedLoader.Next at rank 0's shape with
// nothing consuming the batch, i.e. the producer's generation time.
func (di *distInst) probeLoader(rep *report) {
	dc := di.dc
	ld := data.NewShardedLoader(data.LoaderConfig{DS: dc.Dataset, GlobalN: dc.GlobalN, Rank: 0, Ranks: dc.Ranks,
		Owned: core.LocalTables(di.run, 0, dc.Ranks)})
	defer ld.Close()
	ld.Next()
	ld.Next()
	xs := make([]float64, reps(di.quick, 20))
	for i := range xs {
		xs[i] = timeIt(func() { ld.Next() })
	}
	rep.set("data.loader_next_ms", median(xs)*1e3)
}

// probeCommCopies moves the workload's real payload sizes through
// Comm.Allreduce and Comm.Alltoall at 4 ranks and reports the payload
// bytes all ranks contribute per host second (computed bytes, not traffic).
func (di *distInst) probeCommCopies(rep *report) {
	k := reps(di.quick, 50)
	ranks := di.dc.Ranks
	gradLen := di.run.MLPParams()
	blockLen := core.MaxLocalTables(di.run, ranks) * (di.dc.GlobalN / ranks) * di.run.EmbDim
	cc := cluster.Config{Ranks: ranks, Topo: di.dc.Topo, Socket: di.dc.Socket, Backend: cluster.CCLBackend, Pools: di.pools}
	ar := timeIt(func() {
		cluster.Run(cc, func(r *cluster.Rank) {
			cm := comm.New(r, di.dc.Topo)
			buf := make([]float32, gradLen)
			for i := 0; i < k; i++ {
				r.Wait(cm.Allreduce("probe-ar", buf, false))
			}
		})
	})
	a2a := timeIt(func() {
		cluster.Run(cc, func(r *cluster.Rank) {
			cm := comm.New(r, di.dc.Topo)
			send, recv := make([]float32, ranks*blockLen), make([]float32, ranks*blockLen)
			for i := 0; i < k; i++ {
				r.Wait(cm.AlltoallCost("probe-a2a", send, recv, blockLen, float64(4*blockLen)))
			}
		})
	})
	rep.set("comm.allreduce_copy_gbs", float64(4*gradLen*ranks*k)/ar/1e9)
	rep.set("comm.alltoall_copy_gbs", float64(4*blockLen*ranks*ranks*k)/a2a/1e9)
}

// ---------------------------------------------------------------------------
// sim-strong64: the timing-mode simulator at the Fig. 9 shape.

// The committed legacy baseline (BENCH_2026-08-08-pr10.json) pins these
// virtual ms/iter for 1-iteration runs; the simulator must reproduce them
// exactly.
const (
	anchorStrong64  = 306.21284941835825
	anchorFlatSync  = 447.3348780622385
	anchorEmbStore  = 336.91982911151615
	anchorChurnIter = 1396.4589005158725
)

type simInst struct {
	quick bool
	dc    core.DistConfig
	pools *cluster.Pools

	ops        int
	last       *core.DistResult
	virtIterMs float64
	virtDrift  bool
	runErr     error
}

// simConfig is the Fig9Strong64R shape: Large, 64 ranks, GlobalN 16384,
// CCL alltoall on the pruned fat-tree, default bucketed+overlapped schedule.
func simConfig(pools *cluster.Pools) core.DistConfig {
	return core.DistConfig{
		Cfg: core.Large, Ranks: 64, GlobalN: core.Large.GlobalMB, Iters: 8,
		Variant: cclAlltoall, Topo: fabric.NewPrunedFatTree(64, hostLinkBW), Socket: perfmodel.CLX8280,
		Pools: pools, Workspaces: core.NewDistWorkspaces(),
	}
}

func newSimInst(o runOpts, tr *tracer) (*simInst, error) {
	si := &simInst{quick: o.quick}
	s := tr.begin("cluster.NewPools + core.NewDistWorkspaces")
	si.pools = cluster.NewPools()
	si.dc = simConfig(si.pools)
	tr.end(s)
	s = tr.begin("warm-up: 3 x core.DistConfig.Run")
	defer tr.end(s)
	for i := 0; i < 3; i++ {
		if _, err := si.dc.Run(); err != nil {
			si.pools.Close()
			return nil, fmt.Errorf("sim-strong64 warm-up: %w", err)
		}
	}
	return si, nil
}

// op is one timing-mode DistConfig.Run of 8 simulated iterations.
func (si *simInst) op(tr *tracer) opStat {
	tr.nextOp()
	s := tr.begin("core.DistConfig.Run")
	res, err := si.dc.Run()
	tr.end(s)
	st := opStat{units: si.dc.Iters, samples: si.dc.Iters * si.dc.GlobalN}
	if err != nil {
		si.runErr = err
		st.failed = st.units
		return st
	}
	v := res.IterSeconds * 1e3
	if si.ops > 0 && v != si.virtIterMs {
		si.virtDrift = true
	}
	si.virtIterMs, si.last = v, res
	si.ops++
	return st
}

// sideRun runs a variant of the fixture once on fresh workspaces, leaving
// the measured fixture's own buffers untouched.
func (si *simInst) sideRun(mod func(dc *core.DistConfig)) (*core.DistResult, error) {
	dc := si.dc
	dc.Iters = 1
	dc.Workspaces = core.NewDistWorkspaces()
	mod(&dc)
	return dc.Run()
}

func asFlatSync(dc *core.DistConfig) { dc.Sync, dc.BucketBytes = true, core.FlatBuckets }

func asEmbStore(dc *core.DistConfig) {
	dc.EmbCacheBytes, dc.ColdTierBW = 256<<20, core.DefaultColdTierBW
}

// churnPlan is the legacy elastic case: rank 13 fails at iteration 5 of 8
// under a 3-iteration checkpoint cadence.
func (si *simInst) churnPlan() core.ElasticConfig {
	base := si.dc
	base.Iters = 8
	base.Workspaces = core.NewDistWorkspaces()
	return core.ElasticConfig{
		Base:            base,
		Plan:            &cluster.FaultPlan{Events: []cluster.FaultEvent{{Kind: cluster.RankFail, Iter: 5, Rank: 13}}},
		CheckpointEvery: 3,
	}
}

func (si *simInst) verify(rep *report) {
	rep.check("run-ok", si.runErr == nil && si.ops > 0, "%d runs, error: %v", si.ops, si.runErr)
	if si.ops == 0 || si.runErr != nil {
		return
	}
	rep.check("virt-identical-across-ops", !si.virtDrift, "virt_iter_ms %v over %d runs", si.virtIterMs, si.ops)

	// Busy == Exposed + Hidden for every collective label.
	worst, bad := 0.0, ""
	for _, e := range si.last.Exposures() {
		want := math.Max(e.Busy-e.Exposed, 0)
		gap := math.Abs(e.Hidden - want)
		if e.Busy > e.Exposed {
			gap = math.Max(gap, math.Abs(e.Busy-e.Exposed-e.Hidden))
		}
		if e.Busy < 0 || e.Exposed < 0 || e.Hidden < 0 {
			gap = math.Inf(1)
		}
		if gap > worst {
			worst, bad = gap, e.Label
		}
	}
	rep.check("busy-equals-exposed-plus-hidden", worst <= 1e-12, "worst gap %.3g s (label %q)", worst, bad)

	anchor := func(name string, want float64, mod func(*core.DistConfig)) {
		res, err := si.sideRun(mod)
		got := 0.0
		if err == nil {
			got = res.IterSeconds * 1e3
		}
		rep.check("anchor-"+name, err == nil && got == want, "virtual ms/iter %.17g, committed %.17g (error: %v)", got, want, err)
	}
	anchor("Fig9Strong64R", anchorStrong64, func(*core.DistConfig) {})
	anchor("Fig9Strong64RFlatSync", anchorFlatSync, asFlatSync)
	anchor("Fig9Strong64REmbStore", anchorEmbStore, asEmbStore)
	er, err := core.RunElastic(si.churnPlan())
	got := 0.0
	if err == nil {
		got = er.EffectiveIterSeconds() * 1e3
	}
	rep.check("anchor-Fig9Strong64RChurn", err == nil && got == anchorChurnIter,
		"effective virtual ms/iter %.17g, committed %.17g (error: %v)", got, anchorChurnIter, err)
}

func (si *simInst) close() { si.pools.Close() }

func (si *simInst) traced(tr *tracer, seconds float64, host *hostInfo, rep *report) opStat {
	tot, _ := tracedOps(si, tr, seconds/3, si.quick, rep)
	if si.last == nil {
		return tot
	}
	s := tr.begin("probes")
	defer tr.end(s)
	q, res := si.quick, si.last

	// Where the virtual iteration goes.
	rep.set("virt_iter_ms", si.virtIterMs)
	var prep, busy, hidden float64
	for _, v := range res.PrepPerIter {
		prep += v
	}
	for _, e := range res.Exposures() {
		busy += e.Busy
		hidden += e.Hidden
	}
	rep.set("core.virt_compute_ms", res.ComputePerIter*1e3)
	rep.set("core.virt_prep_ms", prep*1e3)
	rep.set("core.virt_exposed_comm_ms", res.TotalCommPerIter()*1e3)
	rep.set("core.virt_busy_comm_ms", busy*1e3)
	if busy > 0 {
		rep.set("core.virt_hidden_share", hidden/busy)
	}

	// Strong-scaling efficiency against 4 ranks, Large's minimum.
	t4, err := si.sideRun(func(dc *core.DistConfig) {
		dc.Ranks, dc.Topo, dc.Iters = 4, fabric.NewPrunedFatTree(4, hostLinkBW), si.dc.Iters
	})
	if err == nil {
		rep.set("virt_scaling_eff", t4.IterSeconds*4/(res.IterSeconds*64))
	}
	rep.check("scaling-baseline-ran", err == nil, "4-rank run: %v", err)

	// Host cost: per-run vs per-iteration, by differencing Iters 1 and 9.
	one, nine := si.dc, si.dc
	one.Iters, nine.Iters = 1, 9
	n := reps(q, 40)
	run := func(dc core.DistConfig) (sec float64, allocs float64) {
		_, _ = dc.Run()
		m0 := mallocCount()
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = timeIt(func() { _, _ = dc.Run() })
		}
		return median(xs), float64(mallocCount()-m0) / float64(n)
	}
	t1, a1 := run(one)
	t9, a9 := run(nine)
	rep.set("core.sim_iter_marginal_ms", (t9-t1)/8*1e3)
	rep.set("core.sim_run_fixed_ms", (t1-(t9-t1)/8)*1e3)
	rep.set("core.sim_allocs_per_iter", math.Floor((a9-a1)/8))
	rep.set("core.sim_allocs_per_run", math.Floor(a1-(a9-a1)/8))

	// The legacy variant shapes, once each (virtual) — they pin the virtual
	// contract and move no gated metric.
	variant := func(name string, mod func(*core.DistConfig)) {
		if r, err := si.sideRun(mod); err == nil {
			rep.set(name, r.IterSeconds*1e3)
		} else {
			rep.check(name, false, "%v", err)
		}
	}
	variant("core.virt_iter_ms.flatsync", asFlatSync)
	variant("core.virt_iter_ms.contention", func(dc *core.DistConfig) { dc.Contention = true })
	variant("core.virt_iter_ms.embstore", asEmbStore)
	variant("core.virt_iter_ms.weak64", func(dc *core.DistConfig) { dc.GlobalN = core.Large.LocalMB * 64 })
	flat := si.dc
	flat.Iters, flat.Workspaces = 1, core.NewDistWorkspaces()
	asFlatSync(&flat)
	rep.set("core.sim_host_ms.flatsync", medianOf(n, func() { _, _ = flat.Run() })*1e3)

	// Elastic recovery on the legacy churn plan.
	ec := si.churnPlan()
	var er *core.ElasticResult
	if er, err = core.RunElastic(ec); err == nil {
		var ttr float64
		for i := range er.Recoveries {
			ttr += er.Recoveries[i].TimeToRecover()
		}
		rep.set("core.elastic_virt_eff_iter_ms", er.EffectiveIterSeconds()*1e3)
		rep.set("core.elastic_virt_ttr_ms", ttr*1e3)
		m0 := mallocCount()
		k := reps(q, 10)
		rep.set("core.elastic_host_ms", medianOf(k, func() { _, _ = core.RunElastic(ec) })*1e3)
		rep.set("core.elastic_allocs", float64((mallocCount()-m0)/uint64(k+1)))
	}
	rep.check("elastic-ran", err == nil, "RunElastic: %v", err)

	// The simulator's own layers.
	cc := cluster.Config{Ranks: 64, Topo: si.dc.Topo, Socket: si.dc.Socket, Backend: cluster.CCLBackend, Pools: si.pools}
	rep.set("cluster.run_empty_us", medianOf(reps(q, 50), func() { cluster.Run(cc, func(*cluster.Rank) {}) })*1e6)
	rep.set("cluster.collective_us", probeCollective(64, si.pools, q))
	k := 200
	if q {
		k = 10
	}
	cfg := si.dc.Cfg
	arBytes := cfg.AllreduceBytes()
	a2aBlock := cfg.AlltoallBytes(si.dc.GlobalN) / 64 / 64
	costed := func(issue func(cm *comm.Comm) cluster.Handle) float64 {
		return medianOf(reps(q, 3), func() {
			cluster.Run(cc, func(r *cluster.Rank) {
				cm := comm.New(r, si.dc.Topo)
				for i := 0; i < k; i++ {
					r.Wait(issue(cm))
				}
			})
		}) / float64(k) * 1e6
	}
	rep.set("comm.allreduce_host_us", costed(func(cm *comm.Comm) cluster.Handle {
		return cm.AllreduceCost("probe-ar", nil, false, arBytes)
	}))
	rep.set("comm.alltoall_host_us", costed(func(cm *comm.Comm) cluster.Handle {
		return cm.AlltoallCost("probe-a2a", nil, nil, 0, a2aBlock)
	}))
	calls, mb := commPlan(cfg, 64, si.dc.GlobalN)
	rep.set("comm.calls_per_iter", float64(calls))
	rep.set("comm.bytes_per_iter", mb)

	flows := make([]fabric.Flow, 0, 64*63)
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			if a != b {
				flows = append(flows, fabric.Flow{Src: a, Dst: b, Bytes: a2aBlock})
			}
		}
	}
	var scratch fabric.Scratch
	rep.set("fabric.phase_time_us", medianOf(reps(q, 100), func() { scratch.PhaseTime(si.dc.Topo, flows) })*1e6)

	// The schedule autotuner at this shape (not on any timed path).
	tune := si.dc
	tune.Iters, tune.Workspaces = 1, core.NewDistWorkspaces()
	var tuneRep *core.AutotuneReport
	opts := core.AutotuneOpts{}
	if q {
		opts.MaxCandidates = 4
	}
	rep.set("autotune.search_host_ms", timeIt(func() { _, tuneRep = core.AutotuneDistConfig(tune, opts) })*1e3)
	rep.set("autotune.probes", float64(tuneRep.Probes))
	rep.set("autotune.virt_gain_pct", tuneRep.Gain()*100)
	return tot
}

// ---------------------------------------------------------------------------
// serve-func: forward-only serving through Predictor replicas.

// serveLadder is the offered-rate ladder, as multiples of modelled capacity.
var serveLadder = []float64{0.5, 0.7, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5}

type serveInst struct {
	quick bool
	seed  int64
	run   core.Config
	base  serve.Config // timing mode, Requests = 4096: the virtual results
	fn    serve.Config // functional replay at 0.9 x capacity: the host cost
	pools *cluster.Pools

	svc, capacity float64

	ops     int
	last    *serve.Result
	p99     float64
	drift   bool
	runErr  error
	hostPer []float64 // host seconds per served request, one per op
}

func newServeInst(o runOpts, tr *tracer) (*serveInst, error) {
	sv := &serveInst{quick: o.quick, seed: o.seed}
	requests, replay, warm := 4096, 1024, 128
	sv.run = core.Small.Scaled(1.0 / 64)
	if o.quick {
		requests, replay, warm = 256, 64, 32
		sv.run = core.Small.Scaled(1.0 / 4096)
		sv.run.BotHidden, sv.run.TopHidden = []int{64}, []int{64, 64}
	}
	s := tr.begin("serve.Config.ServiceTime")
	sv.base = serve.Config{
		Cfg: core.Small, Replicas: 8, Topo: fabric.NewPrunedFatTree(8, hostLinkBW),
		Socket: perfmodel.CLX8280, Backend: cluster.CCLBackend,
		Policy:   serve.Policy{MaxBatch: 32, MaxWait: 2e-3},
		Requests: requests, OfferedQPS: 1, Seed: o.seed,
	}
	svc, err := sv.base.ServiceTime(sv.base.Policy.MaxBatch)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("serve-func: %w", err)
	}
	sv.svc = svc
	sv.base.Policy.SLO = 2 * (sv.base.Policy.MaxWait + svc)
	sv.capacity = float64(sv.base.Replicas) * float64(sv.base.Policy.MaxBatch) / svc
	sv.base.Workspaces = serve.NewWorkspaces()

	s = tr.begin("cluster.NewPools + serve.NewWorkspaces + data.NewRequestLog")
	sv.pools = cluster.NewPools()
	sv.fn = sv.base
	sv.fn.RunCfg = &sv.run
	sv.fn.Dataset = data.NewRequestLog(o.seed, sv.run.DenseIn, sv.run.Rows, sv.run.Lookups)
	sv.fn.Pools, sv.fn.Workspaces = sv.pools, serve.NewWorkspaces()
	sv.fn.Requests, sv.fn.OfferedQPS = replay, 0.9*sv.capacity
	tr.end(s)

	s = tr.begin("warm-up: serve.Run (functional, short)")
	w := sv.fn
	w.Requests = warm
	_, err = serve.Run(w)
	tr.end(s)
	if err != nil {
		sv.pools.Close()
		return nil, fmt.Errorf("serve-func warm-up: %w", err)
	}
	return sv, nil
}

// op is one functional replay at 0.9 x capacity: every served request is
// really predicted through the replicas.
func (sv *serveInst) op(tr *tracer) opStat {
	tr.nextOp()
	s := tr.begin("serve.Run")
	t0 := time.Now()
	res, err := serve.Run(sv.fn)
	host := time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		sv.runErr = err
		return opStat{units: sv.fn.Requests, failed: sv.fn.Requests}
	}
	if sv.ops > 0 && res.P99 != sv.p99 {
		sv.drift = true
	}
	sv.last, sv.p99 = res, res.P99
	sv.ops++
	if res.Served > 0 {
		sv.hostPer = append(sv.hostPer, host/float64(res.Served))
	}
	return opStat{units: res.Served, samples: res.Served, failed: res.Shed}
}

// at runs the timing-mode config at a multiple of capacity.
func (sv *serveInst) at(c serve.Config, load float64) (*serve.Result, error) {
	c.OfferedQPS = load * sv.capacity
	return serve.Run(c)
}

// ladder walks the offered-rate ladder in timing mode and returns the
// results by rung.
func (sv *serveInst) ladder() (map[float64]*serve.Result, error) {
	out := map[float64]*serve.Result{}
	for _, f := range serveLadder {
		r, err := sv.at(sv.base, f)
		if err != nil {
			return nil, err
		}
		out[f] = r
	}
	return out, nil
}

func (sv *serveInst) verify(rep *report) {
	rep.check("run-ok", sv.runErr == nil && sv.ops > 0, "%d replays, error: %v", sv.ops, sv.runErr)
	if sv.ops == 0 || sv.runErr != nil {
		return
	}
	rep.check("virt-identical-across-ops", !sv.drift, "p99 %v over %d replays", sv.p99, sv.ops)
	slo := sv.base.Policy.SLO

	rungs, err := sv.ladder()
	rep.check("ladder-ran", err == nil, "%v", err)
	if err != nil {
		return
	}
	conserved, within := true, true
	for _, r := range rungs {
		conserved = conserved && r.Served+r.Shed == r.Requests
		within = within && r.Max <= slo
	}
	// The overload rung replayed functionally, at the ladder's request count
	// (shedding only starts once ~2300 requests have queued up).
	overload := sv.fn
	overload.Requests = sv.base.Requests
	over, err := sv.at(overload, 1.5)
	if err == nil {
		same := rungs[1.5]
		rep.check("overload-sheds-as-modelled", (sv.quick || over.Shed > 0) && over.Shed == same.Shed && over.P99 == same.P99,
			"functional replay shed %d, timing mode %d", over.Shed, same.Shed)
		conserved = conserved && over.Served+over.Shed == over.Requests
		within = within && over.Max <= slo
		nan := 0
		for _, p := range over.Preds {
			if p != p {
				nan++
			}
		}
		rep.check("shed-requests-have-no-prediction", nan == over.Shed, "%d NaN predictions, %d shed", nan, over.Shed)
	}
	rep.check("overload-replay-ran", err == nil, "%v", err)
	rep.check("served-plus-shed-equals-requests", conserved, "every rung and both functional replays")
	rep.check("no-served-latency-above-slo", within, "SLO %.6g virtual s", slo)

	// Virtual results must not depend on whether requests were predicted.
	timing := sv.fn
	timing.RunCfg, timing.Dataset, timing.Pools = nil, nil, nil
	tm, err := serve.Run(timing)
	same := err == nil && tm.P50 == sv.last.P50 && tm.P99 == sv.last.P99 &&
		tm.Served == sv.last.Served && tm.Makespan == sv.last.Makespan
	rep.check("timing-equals-functional", same, "p50, p99, served and makespan of the same stream in both modes (error: %v)", err)

	// 64 sampled predictions against a single-socket Predictor.
	m := core.NewModel(sv.run, 1, sv.seed)
	pred := core.NewPredictor(m, par.Default)
	mb, out := &data.MiniBatch{}, make([]float32, 1)
	n, diff := sv.fn.Requests, 0
	for i := 0; i < 64; i++ {
		k := i * n / 64
		sv.fn.Dataset.FillRange(0, n, k, k+1, mb)
		pred.PredictInto(mb, out)
		if math.Float32bits(out[0]) != math.Float32bits(sv.last.Preds[k]) {
			diff++
		}
	}
	rep.check("predictions-bit-equal-single-socket", diff == 0, "%d of 64 sampled predictions differ", diff)
}

func (sv *serveInst) close() { sv.pools.Close() }

func (sv *serveInst) traced(tr *tracer, seconds float64, host *hostInfo, rep *report) opStat {
	tot, _ := tracedOps(sv, tr, seconds/2, sv.quick, rep)
	if sv.last == nil {
		return tot
	}
	s := tr.begin("probes")
	defer tr.end(s)
	q := sv.quick

	// The virtual results: the ladder in timing mode at 4096 requests.
	rungs, err := sv.ladder()
	rep.check("ladder-ran-traced", err == nil, "%v", err)
	if err != nil {
		return tot
	}
	slo := sv.base.Policy.SLO
	rep.set("virt_p50_ms", rungs[0.9].P50*1e3)
	rep.set("virt_p99_ms", rungs[0.9].P99*1e3)
	rep.set("virt_goodput_qps", rungs[1.5].Throughput)
	for _, f := range serveLadder {
		if r := rungs[f]; r.Shed == 0 && r.P99 <= slo {
			rep.set("virt_max_qps_in_slo", f*sv.capacity)
		}
	}
	rep.set("serve.service_time_virt_ms", sv.svc*1e3)
	rep.set("serve.mean_batch", rungs[0.9].MeanBatch)
	rep.set("serve.shed_frac_overload", float64(rungs[1.5].Shed)/float64(rungs[1.5].Requests))

	// Host cost of the event loop alone, and the share the real forward adds.
	nine := sv.base
	nine.OfferedQPS = 0.9 * sv.capacity
	loop := medianOf(reps(q, 20), func() { _, _ = serve.Run(nine) }) / float64(nine.Requests)
	rep.set("serve.event_loop_ns_per_req", loop*1e9)
	if f := median(sv.hostPer); f > 0 {
		rep.set("serve.func_eval_share", 1-loop/f)
	}

	// The layers under a replica, at the serving shapes (BN = 1, batch 32).
	b := sv.base.Policy.MaxBatch
	m := core.NewModel(sv.run, 1, sv.seed)
	pred := core.NewPredictor(m, par.Default)
	mb, out := &data.MiniBatch{}, make([]float32, b)
	n := sv.fn.Requests
	rep.set("data.request_fill_us", medianOf(reps(q, 20), func() {
		sv.fn.Dataset.FillRange(0, n, 0, b, mb)
	})/float64(b)*1e6)
	rep.set("core.predict_us_per_req", medianOf(reps(q, 10), func() { pred.PredictInto(mb, out) })/float64(b)*1e6)
	rows := pred.EmbOut(b)
	fwd := medianOf(reps(q, 20), func() {
		for t, tab := range m.Tables {
			tab.Forward(par.Default, mb.Sparse[t], rows[t])
		}
	})
	rep.set("embedding.fwd_ms", fwd*1e3)
	rep.set("embedding.fwd_gbs", perfmodel.EmbeddingFwdBytes(sv.run.Tables, b, sv.run.Lookups, sv.run.EmbDim)/fwd/1e9)
	probeGEMM(nil, q, rep)
	return tot
}
