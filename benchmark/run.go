package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runOpts is one run of one workload, as the command line gives it.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // tiny shapes, for the smoke test only
	outDir   string // traces and the full result land here ("" = nowhere)
}

// opStat is what one timed op did: units is the op-unit count its wall
// time is divided by for host_step_ms_p50 (1 step, Iters iterations,
// served requests), samples the training samples or requests it processed,
// failed the units that failed (non-finite loss, Run error, shed request).
type opStat struct {
	units, samples, failed int
}

// instance is one set-up workload: the adapter builds it, the runner drives it.
type instance interface {
	// op runs one timed op. End-to-end runs pass a nil tracer.
	op(tr *tracer) opStat
	// traced runs the traced window for about the given seconds plus the
	// workload's isolated probes, stores per-layer values in rep and
	// returns the window's totals.
	traced(tr *tracer, seconds float64, host *hostInfo, rep *report) opStat
	// verify runs the output checks once the timed window is over.
	verify(rep *report)
	close()
}

// check is one output check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report collects what a run found beyond the timed window itself.
type report struct {
	layer  map[string]float64
	notes  map[string]string
	checks []check
	// mallocs and allocOps are what allocs_per_op was computed from.
	mallocs, allocOps uint64
}

func newReport() *report {
	return &report{layer: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.layer[name] = v }

// setAllocs records allocs_per_op, ⌊mallocs ÷ ops⌋, and the counts behind it.
func (r *report) setAllocs(mallocs, ops uint64) {
	r.mallocs, r.allocOps = mallocs, ops
	r.set("allocs_per_op", float64(allocsPerOp(mallocs, ops)))
	r.note("allocs_per_op", "floor(%d mallocs / %d ops)", mallocs, ops)
}

func (r *report) note(name, format string, a ...any) { r.notes[name] = fmt.Sprintf(format, a...) }

func (r *report) check(name string, ok bool, format string, a ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, a...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the fuller record written beside the traces: the header, the
// spread inside the run, and every check.
type detail struct {
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Host     hostInfo           `json:"host"`
	Result   result             `json:"result"`
	Ops      int                `json:"ops"`
	StepMs   map[string]float64 `json:"host_step_ms,omitempty"`
	PerUnit  []float64          `json:"host_ms_per_unit_each,omitempty"`
	SetupS   []float64          `json:"setup_s_each,omitempty"`
	Notes    map[string]string  `json:"notes,omitempty"`
	Checks   []check            `json:"checks"`
}

// Set-up is repeated inside one run and its median reported, because a
// single sub-second set-up is dominated by scheduling noise: at least
// minSetups, then more while they are cheap, up to maxSetups or
// setupBudget of wall time.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

// gcAfterOpLongerThan: an op longer than this many seconds ends with a
// garbage collection, inside its timed region. The workloads whose op is a
// whole Run() build their models inside it, tens to hundreds of MB an op;
// without this, where the collector happens to be when an op starts decides
// how much of the previous op's garbage is still resident (peak RSS moved
// 17 % between identical runs). The collection is timed with the op so that
// what a change allocates is paid for in both gated host-time metrics, not
// hidden between ops. Short ops (the simulator's 16 ms runs) are left to the
// collector's own pace, which the window's wall time includes as well.
const gcAfterOpLongerThan = 0.05

// timedOp is one op of the timed window: what it did and its wall seconds.
type timedOp struct {
	opStat
	wall float64
}

// windowStats reduces a timed window to the two gated host-time metrics,
// over every op of it: host_step_ms_p50, the median of the ops' host ms per
// op-unit, and host_samples_per_s, the samples of all ops per second of the
// whole window. perUnit is every op's ms per op-unit, in window order.
func windowStats(ops []timedOp, window float64) (perUnit []float64, p50Ms, samplesPerS float64) {
	samples := 0
	for _, op := range ops {
		samples += op.samples
		if op.units > 0 {
			perUnit = append(perUnit, op.wall/float64(op.units)*1e3)
		}
	}
	if window > 0 {
		samplesPerS = float64(samples) / window
	}
	return perUnit, median(perUnit), samplesPerS
}

// strayMallocs is how many heap allocations of a window the allocs-per-op
// check leaves out of account: the Go runtime makes a few of its own while a
// window runs (0-3 were seen on the allocation-free training step), and when
// the host is slow enough that a window holds one or two ops, ⌊mallocs ÷ ops⌋
// would charge them to the step.
const strayMallocs = 16

// checkAllocs is the output check that holds allocs_per_op, which the driver
// cannot gate (it is 0 on the training workloads): exactly 0 where the
// workload's steady state is allocation-free by contract, at most the
// workload's pinned ceiling elsewhere. Allocations are counted from the end of
// the window's first op (see runEndToEnd), so the value does not depend on how
// many ops the host fitted into the window. A smoke run's tiny shapes and
// single op say nothing about either, so it is not checked.
func checkAllocs(rep *report, workload string, quick bool) {
	if quick {
		return
	}
	w, _ := workloadByName(workload)
	perOp := allocsPerOp(rep.mallocs-min(rep.mallocs, strayMallocs), rep.allocOps)
	rep.check("allocs-per-op", rep.allocOps > 0 && perOp <= w.allocCeiling,
		"floor((%d mallocs - %d allowed the runtime) / %d ops) = %d, ceiling %d",
		rep.mallocs, strayMallocs, rep.allocOps, perOp, w.allocCeiling)
}

// runWorkload performs one run and returns its result and detail.
func runWorkload(o runOpts) (result, detail, error) {
	if _, ok := workloadByName(o.workload); !ok {
		return result{}, detail{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	host := readHostInfo(o.seed)
	rep := newReport()
	det := detail{Workload: o.workload, Traced: o.trace, Host: host}
	var res result
	var err error
	if o.trace {
		res, err = runTraced(o, &det, rep)
	} else {
		res, err = runEndToEnd(o, &det, rep)
	}
	if err != nil {
		return result{}, detail{}, err
	}
	det.Result, det.Notes, det.Checks = res, rep.notes, rep.checks
	if o.outDir != "" {
		mode := "e2e"
		if o.trace {
			mode = "traced"
		}
		if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("result-%s-%s.json", o.workload, mode)), det); err != nil {
			return result{}, detail{}, err
		}
	}
	return res, det, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(o runOpts, det *detail, rep *report) (result, error) {
	var inst instance
	var setups []float64
	var spent time.Duration
	for k := 0; k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if inst != nil {
			inst.close()
			inst = nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = newInstance(o, nil); err != nil {
			return result{}, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if o.quick {
			break
		}
	}
	defer inst.close()
	runtime.GC()

	// Room for a window of the shortest op (660 of the simulator's 16 ms runs)
	// without growing. Not more: a 2 MB buffer was zeroed, and so made
	// resident, only in the runs where the allocator handed it recycled
	// memory, which made the simulator's 11 MB peak RSS read 2 MB apart from
	// run to run.
	ops := make([]timedOp, 0, 1<<12)
	var units, samples, failed int
	// Allocations are counted from the end of the first op: it is timed like
	// the others, but buffers that the set-up's shorter warm-up left small grow
	// in it (370 mallocs on serve-func), and their share of ⌊mallocs ÷ ops⌋
	// would depend on how many ops the host fits into the window.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0) // stands if the window is a smoke run's single op
	start := time.Now()
	for len(ops) < 2 || time.Since(start).Seconds() < o.seconds {
		t0 := time.Now()
		st := inst.op(nil)
		if time.Since(t0).Seconds() > gcAfterOpLongerThan {
			runtime.GC() // timed with the op: see gcAfterOpLongerThan
		}
		ops = append(ops, timedOp{st, time.Since(t0).Seconds()})
		units += st.units
		samples += st.samples
		failed += st.failed
		if o.quick {
			break
		}
		if len(ops) == 1 {
			runtime.ReadMemStats(&ms0)
		}
	}
	window := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	// Read the high-water mark before the checks: several of them build a
	// second model to compare against, which is not the workload's memory.
	rss := peakRSSMB()

	inst.verify(rep)
	rep.check("ops-ran", units > 0 && samples > 0, "%d op-units, %d samples in %.2fs", units, samples, window)

	perUnit, p50, rate := windowStats(ops, window)
	q1, _, q3 := quartiles(perUnit)
	tp, tv, tn := tailPercentile(perUnit)
	det.Ops = len(ops)
	det.SetupS = setups
	det.PerUnit = perUnit
	det.StepMs = map[string]float64{"q1": q1, "p50": p50, "q3": q3, "tail_pct": tp, "tail": tv, "n": float64(tn)}
	rep.setAllocs(ms1.Mallocs-ms0.Mallocs, uint64(max(len(ops)-1, 1)))
	checkAllocs(rep, o.workload, o.quick)

	vals := map[string]float64{
		"setup_s":            median(setups),
		"host_samples_per_s": rate,
		"host_step_ms_p50":   p50,
		"peak_rss_mb":        rss,
	}
	res := result{Correct: rep.correct(), Attempted: units, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		v := vals[m.name]
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.check("metric-"+m.name, false, "value %v is not a positive finite number", v)
			res.Correct = false
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// runTraced measures the per-layer ledger. The workload's own part: one
// set-up with spans around its calls, its traced window and probes, the
// output checks, and the trace written out. Then the rest of the ledger:
// every layer that is not on this workload's path is measured briefly at the
// shapes of the workload it is at home on, so that a traced run reports every
// per-layer metric as a number measured in that run.
func runTraced(o runOpts, det *detail, rep *report) (result, error) {
	tr := newTracer(1 << 17)
	host := &det.Host
	host.calibrate(o.quick)
	rep.set("host.fma_gflops", host.FMAGflops)
	rep.set("host.triad_gbs", host.TriadGBs)
	releaseMemory()

	s := tr.begin("setup")
	inst, err := newInstance(o, tr)
	tr.end(s)
	if err != nil {
		return result{}, err
	}
	st := inst.traced(tr, o.seconds, host, rep)
	checkAllocs(rep, o.workload, o.quick)
	inst.verify(rep)
	inst.close()
	if tr.dropped > 0 {
		rep.note("trace", "%d spans dropped: buffer full", tr.dropped)
	}
	if o.outDir != "" {
		meta := map[string]any{"workload": o.workload, "host": *host}
		if err := tr.writeChrome(filepath.Join(o.outDir, "trace-"+o.workload+".json"), meta); err != nil {
			return result{}, err
		}
	}

	for _, w := range workloads {
		if w.name == o.workload {
			continue
		}
		releaseMemory()
		side, so := newReport(), o
		so.workload = w.name
		other, err := newInstance(so, nil)
		if err != nil {
			return result{}, err
		}
		other.traced(newTracer(1<<14), 0, host, side) // 0 s: the fewest ops that give a number
		other.close()
		for _, m := range perLayer {
			if !m.isHome(o.workload) && m.homes[0] == w.name {
				rep.set(m.name, side.layer[m.name])
			}
		}
		for _, c := range side.checks {
			rep.check("ledger/"+w.name+"/"+c.Name, c.OK, "%s", c.Detail)
		}
	}

	res := result{Correct: rep.correct(), Attempted: st.units, Failed: st.failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		v := rep.layer[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.check("metric-"+m.name, false, "value %v is not finite", v)
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// releaseMemory returns freed heap to the OS, so the next set-up of the
// same run neither inherits the last one's garbage nor raises the
// high-water mark by holding two models at once.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tracedOps is the traced window of the workloads whose op is one Run():
// it alternates untraced and traced ops for the given time (at least one
// of each), reports the tracing overhead and allocations per op, and
// returns the window's totals and every op's wall seconds. The layers inside Run() cannot be bracketed
// from here; their numbers come from the instance's isolated probes.
func tracedOps(inst instance, tr *tracer, seconds float64, quick bool, rep *report) (opStat, []float64) {
	var off, on []float64
	var tot opStat
	var ms0, ms1 runtime.MemStats
	n := 0
	start := time.Now()
	for n < 2 || time.Since(start).Seconds() < seconds {
		t := tr
		if n%2 == 0 {
			t = nil
		}
		t0 := time.Now()
		st := inst.op(t)
		w := time.Since(t0).Seconds()
		if t == nil {
			off = append(off, w)
		} else {
			on = append(on, w)
		}
		tot.units += st.units
		tot.samples += st.samples
		tot.failed += st.failed
		n++
		if quick && n >= 2 {
			break
		}
		if n == 1 {
			runtime.ReadMemStats(&ms0) // from the end of the first op, as in runEndToEnd
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.setAllocs(ms1.Mallocs-ms0.Mallocs, uint64(max(n-1, 1)))
	if m := median(off); m > 0 && len(on) > 0 {
		rep.set("bench.trace_overhead_pct", (median(on)-m)/m*100)
	}
	return tot, append(off, on...)
}
