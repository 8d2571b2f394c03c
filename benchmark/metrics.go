package main

// The benchmark's vocabulary: five workloads, the end-to-end metrics a user
// of the system pays or consumes, and the per-layer ledger. Later issues
// refer to these names; BENCHMARK.json lists the same names (a test keeps
// the two in step) and README.md explains each.

// workloadDef names one workload, says why it exists, and pins the most
// heap mallocs one of its ops may make (allocs_per_op, checked in every run:
// see checkAllocs). The training steps are allocation-free in steady state, so
// their ceiling is 0. The other three start goroutines and park them at
// rendezvous inside every op, which moves their count by a few tenths of a
// percent between identical runs on an idle host and by up to 4 % on one
// that is short of CPU (more rendezvous block, and a blocked goroutine may
// allocate its wait record), so they get the count measured on this commit at
// go1.24 and GOMAXPROCS 2 plus 10 to 25 %: 2280 an op on dist-func4 and 3897
// on sim-strong64 (4003 seen with 60 % of CPU time stolen), where one more
// allocation per rank and iteration adds 40 and 512; 887 a replay on
// serve-func (970 on the slow host), where one more allocation per request
// adds 1024. The window's first op is not counted (see runEndToEnd). Lower is
// better: a change that allocates less passes.
type workloadDef struct {
	name, why    string
	allocCeiling uint64
}

var workloads = []workloadDef{
	{"train-mlp", "real single-socket training bound by the three blocked GEMMs (Small/64, N=128, one batch reused): gemm/mlp/tensor changes show here, embedding/data changes must not", 0},
	{"train-emb", "real single-socket training bound by memory-bound embedding traffic (8x250k x64 tables, P=50, N=2048) with the prefetching loader in the loop: embedding/data/par changes show, GEMM share under 5%", 0},
	{"dist-func4", "real hybrid-parallel training on 4 rank goroutines: the only workload where rendezvous and collectives move payloads, per-rank loaders run concurrently and the tiered embedding store is on the path", 2500},
	{"sim-strong64", "timing-mode simulator at the Fig. 9 shape (Large, 64 ranks): no kernel runs, so host time is pure simulator overhead and every virtual number must repeat exactly", 4400},
	{"serve-func", "the same layers used forward-only at BN=1 through 8 Predictor replicas under an open-loop virtual-time arrival stream: a kernel tuned for training tiles that costs the bn=1 read path shows here", 1150},
}

// kind says how a metric's value behaves between two runs of one commit.
type kind int

const (
	timed kind = iota // host clock, host memory or allocations: varies from run to run (allocations by under 1 %)
	count             // a count made by the program: repeats exactly for a given seed
	virt              // virtual clock: deterministic, repeats bit-exactly
)

// metricDef describes one metric. An end-to-end metric is reported by every
// workload with tracing off and carries the regression bound; a per-layer
// metric is measured at the shapes of the workloads on whose path the layer
// is (homes). A traced run of any other workload measures it briefly at the
// first home's shapes, so every traced run reports the whole ledger.
type metricDef struct {
	name, unit, better string
	kind               kind
	homes              []string // per-layer only: workloads that measure it
	bound              float64  // end-to-end only
}

// endToEnd is the set BENCHMARK.json gates: the four of the issue's eleven
// end-to-end metrics that every workload can report, that are never 0 and
// that do not read identically on every run, which is what the driver
// requires of a gated metric. host_samples_per_s and host_step_ms_p50 are
// taken over every op of the timed window (see windowStats). A bound is the
// issue's, widened until the widest run-to-run spread -agree showed for the
// metric on any workload of this shared host is at most a third of it (the
// driver refuses a benchmark whose spread reaches the bound): 7.7 % on the two
// host-time metrics, 4.6 % on memory. README.md records every spread.
// The other seven names (allocs_per_op and the six virt_* metrics) are 0,
// constant, or defined on one or two workloads only; they are reported with
// the per-layer set. allocs_per_op is held by an output check in every run
// (checkAllocs), the virt_* metrics by the output checks on the virtual
// results and by -agree, which requires two traced runs to report them equal.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_samples_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "host_step_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

var (
	allW   = []string{"train-mlp", "train-emb", "dist-func4", "sim-strong64", "serve-func"}
	trainW = []string{"train-mlp", "train-emb"}
	mlpW   = []string{"train-mlp"}
	embW   = []string{"train-emb"}
	distW  = []string{"dist-func4"}
	simW   = []string{"sim-strong64"}
	serveW = []string{"serve-func"}
)

func lower(name, unit string, k kind, homes []string) metricDef {
	return metricDef{name: name, unit: unit, better: "lower", kind: k, homes: homes}
}

func higher(name, unit string, k kind, homes []string) metricDef {
	return metricDef{name: name, unit: unit, better: "higher", kind: k, homes: homes}
}

// perLayer is the ledger: the issue's 82 layer metrics plus the seven
// end-to-end names the driver cannot gate (see endToEnd).
var perLayer = []metricDef{
	// Exact end-to-end metrics, reported beside the ledger.
	lower("allocs_per_op", "count", timed, allW),
	lower("virt_iter_ms", "virt_ms", virt, []string{"dist-func4", "sim-strong64"}),
	higher("virt_scaling_eff", "ratio", virt, simW),
	lower("virt_p50_ms", "virt_ms", virt, serveW),
	lower("virt_p99_ms", "virt_ms", virt, serveW),
	higher("virt_goodput_qps", "1/virt_s", virt, serveW),
	higher("virt_max_qps_in_slo", "1/virt_s", virt, serveW),

	// Host calibration: denominators, not a repo layer.
	higher("host.fma_gflops", "GFLOP/s", timed, allW),
	higher("host.triad_gbs", "GB/s", timed, allW),

	higher("gemm.fwd_gflops", "GFLOP/s", timed, mlpW),
	higher("gemm.bwd_data_gflops", "GFLOP/s", timed, mlpW),
	higher("gemm.bwd_weights_gflops", "GFLOP/s", timed, mlpW),
	higher("gemm.fwd_pct_fma_roof", "%", timed, mlpW),
	higher("gemm.fwd_bn1_gflops", "GFLOP/s", timed, []string{"train-mlp", "serve-func"}),

	lower("tensor.pack_unpack_ms", "ms", timed, trainW),
	lower("tensor.transpose_ms", "ms", timed, trainW),

	lower("mlp.top_fwd_ms", "ms", timed, trainW),
	lower("mlp.top_bwd_ms", "ms", timed, trainW),
	lower("mlp.bot_fwd_ms", "ms", timed, trainW),
	lower("mlp.bot_bwd_ms", "ms", timed, trainW),
	lower("mlp.non_gemm_share", "ratio", timed, trainW),

	lower("embedding.fwd_ms", "ms", timed, []string{"train-mlp", "train-emb", "serve-func"}),
	higher("embedding.fwd_gbs", "GB/s", timed, []string{"train-mlp", "train-emb", "serve-func"}),
	higher("embedding.fwd_pct_triad", "%", timed, trainW),
	lower("embedding.fused_update_ms", "ms", timed, embW),
	higher("embedding.fused_update_gbs", "GB/s", timed, embW),
	lower("embedding.bwd_update_ms", "ms", timed, mlpW),

	lower("interaction.fwd_ms", "ms", timed, trainW),
	lower("interaction.bwd_ms", "ms", timed, trainW),
	lower("loss.bce_ms", "ms", timed, trainW),
	lower("optim.sgd_ms", "ms", timed, trainW),
	lower("par.region_us", "us", timed, []string{"train-mlp", "train-emb", "dist-func4"}),

	lower("data.batch_gen_ms", "ms", timed, trainW),
	lower("data.loader_next_ms", "ms", timed, distW),
	lower("data.loader_wait_ms", "ms", timed, embW),
	lower("data.request_fill_us", "us", timed, serveW),

	lower("embstore.fwd_ms", "ms", timed, distW),
	lower("embstore.update_ms", "ms", timed, distW),
	higher("embstore.hit_rate", "ratio", count, distW),
	higher("embstore.hit_rate_model", "ratio", count, distW),
	lower("embstore.evictions_per_iter", "count", count, distW),
	lower("embstore.writebacks_per_iter", "count", count, distW),

	lower("core.fwd_dense_ms", "ms", timed, trainW),
	lower("core.bwd_dense_ms", "ms", timed, trainW),
	lower("core.step_residual_pct", "%", timed, trainW),
	lower("core.step_ms_tail", "ms", timed, trainW),
	lower("core.predict_us_per_req", "us", timed, serveW),
	lower("core.model_init_s", "s", timed, trainW),

	lower("core.sim_run_fixed_ms", "ms", timed, simW),
	lower("core.sim_iter_marginal_ms", "ms", timed, simW),
	lower("core.sim_allocs_per_run", "count", timed, simW),
	lower("core.sim_allocs_per_iter", "count", timed, simW),
	lower("core.virt_compute_ms", "virt_ms", virt, simW),
	lower("core.virt_prep_ms", "virt_ms", virt, simW),
	lower("core.virt_exposed_comm_ms", "virt_ms", virt, simW),
	lower("core.virt_busy_comm_ms", "virt_ms", virt, simW),
	higher("core.virt_hidden_share", "ratio", virt, simW),
	lower("core.virt_iter_ms.flatsync", "virt_ms", virt, simW),
	lower("core.virt_iter_ms.contention", "virt_ms", virt, simW),
	lower("core.virt_iter_ms.embstore", "virt_ms", virt, simW),
	lower("core.virt_iter_ms.weak64", "virt_ms", virt, simW),
	lower("core.sim_host_ms.flatsync", "ms", timed, simW),
	lower("core.dist_run_fixed_ms", "ms", timed, distW),
	lower("core.dist_iter_marginal_ms", "ms", timed, distW),
	lower("core.dist_loss_gap", "ratio", count, distW),
	lower("core.elastic_virt_eff_iter_ms", "virt_ms", virt, simW),
	lower("core.elastic_virt_ttr_ms", "virt_ms", virt, simW),
	lower("core.elastic_host_ms", "ms", timed, simW),
	lower("core.elastic_allocs", "count", timed, simW),

	lower("cluster.run_empty_us", "us", timed, simW),
	lower("cluster.collective_us", "us", timed, simW),
	lower("cluster.collective_us_4r", "us", timed, distW),

	lower("comm.allreduce_host_us", "us", timed, simW),
	lower("comm.alltoall_host_us", "us", timed, simW),
	higher("comm.allreduce_copy_gbs", "GB/s", timed, distW),
	higher("comm.alltoall_copy_gbs", "GB/s", timed, distW),
	lower("comm.calls_per_iter", "count", count, []string{"dist-func4", "sim-strong64"}),
	lower("comm.bytes_per_iter", "MB", count, []string{"dist-func4", "sim-strong64"}),

	lower("fabric.phase_time_us", "us", timed, simW),

	lower("serve.event_loop_ns_per_req", "ns", timed, serveW),
	lower("serve.service_time_virt_ms", "virt_ms", virt, serveW),
	higher("serve.mean_batch", "count", virt, serveW),
	lower("serve.shed_frac_overload", "ratio", virt, serveW),
	higher("serve.func_eval_share", "ratio", timed, serveW),

	lower("autotune.search_host_ms", "ms", timed, simW),
	lower("autotune.probes", "count", count, simW),
	higher("autotune.virt_gain_pct", "%", virt, simW),

	lower("bench.trace_overhead_pct", "%", timed, allW),
	lower("bench.decomp_gap_pct", "%", timed, trainW),
}

// isHome reports whether workload w measures per-layer metric m.
func (m metricDef) isHome(w string) bool {
	for _, h := range m.homes {
		if h == w {
			return true
		}
	}
	return false
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
