// Command dlrmserve replays Zipf-skewed click traffic against the online
// serving tier: a dispatcher batches Poisson request arrivals under a
// max-batch/max-wait policy (optionally an SLO with deadline shedding) and
// spreads the batches across model replicas on the simulated cluster,
// where each replica pulls remote embedding shards over the fabric. It
// prints the p50/p99-latency vs throughput curve across offered loads.
//
// Usage:
//
//	dlrmserve                                   # MLPerf on 8 sockets, SLO on/off × 3 loads
//	dlrmserve -config large -replicas 64 -maxbatch 64
//	dlrmserve -loads 0.25,1,2,4 -slo 8ms        # explicit sweep and SLO
//	dlrmserve -qps 150000 -maxwait 1ms          # one absolute offered rate
//	dlrmserve -functional -requests 512         # really execute the scaled model
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/fabric"
	"repro/internal/gemm"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

func main() {
	configName := flag.String("config", "mlperf", "model config: small, large, mlperf")
	replicas := flag.Int("replicas", 8, "serving sockets (embedding tables shard round-robin)")
	maxBatch := flag.Int("maxbatch", 32, "dispatch a batch at this many queued requests")
	maxWait := flag.Duration("maxwait", 2*time.Millisecond, "dispatch when the oldest request has waited this long")
	slo := flag.Duration("slo", 0, "latency SLO; 0 derives 2x(maxwait+service) for the SLO rows")
	requests := flag.Int("requests", 3840, "requests to replay per run")
	loads := flag.String("loads", "0.5,1.5,3", "offered loads as multiples of modeled capacity")
	qps := flag.Float64("qps", 0, "absolute offered rate in requests/s (overrides -loads)")
	backendName := flag.String("backend", "ccl", "communication backend: ccl, mpi")
	seed := flag.Int64("seed", 0, "arrival-stream (and functional model) seed")
	functional := flag.Bool("functional", false, "execute a scaled model for real and report predictions")
	rowScale := flag.Float64("rowscale", 1.0/64, "embedding row scaling for -functional")
	embCache := flag.Int("emb-cache-bytes", 0, "hot-row cache budget per replica; 0 keeps shards in RAM")
	coldBW := flag.Float64("cold-bw", 0, "cold-tier bandwidth in B/s (required with -emb-cache-bytes)")
	flag.Parse()

	cfg, ok := map[string]core.Config{
		"small":  core.Small,
		"large":  core.Large,
		"mlperf": core.MLPerf,
	}[strings.ToLower(*configName)]
	if !ok {
		log.Fatalf("unknown config %q", *configName)
	}
	backend, ok := map[string]cluster.Backend{
		"mpi": cluster.MPIBackend,
		"ccl": cluster.CCLBackend,
	}[strings.ToLower(*backendName)]
	if !ok {
		log.Fatalf("unknown backend %q", *backendName)
	}
	// The fat tree spans 1..64 sockets and panics outside that range, before
	// serve.Config.Validate could name the problem.
	if *replicas < 1 || *replicas > 64 {
		log.Fatalf("-replicas %d: the fabric spans 1..64 sockets", *replicas)
	}
	if !(*rowScale > 0) {
		log.Fatalf("-rowscale %g: need a positive scale", *rowScale)
	}

	base := serve.Config{
		Cfg:        cfg,
		Replicas:   *replicas,
		Topo:       fabric.NewPrunedFatTree(*replicas, 12.5e9),
		Socket:     perfmodel.CLX8280,
		Backend:    backend,
		Policy:     serve.Policy{MaxBatch: *maxBatch, MaxWait: maxWait.Seconds()},
		Requests:   *requests,
		Seed:       *seed,
		OfferedQPS: 1, // placeholder until the sweep sets the real rate
		Workspaces: serve.NewWorkspaces(),
	}
	if *embCache > 0 {
		base.EmbCacheBytes = *embCache
		base.ColdTierBW = *coldBW
	}
	if *functional {
		// The functional model is the priced config scaled to host memory;
		// its RequestLog dataset keys each request to a Zipf-drawn entity
		// whose table rows are a pure function of the entity — hot requests
		// recur with identical row sets, the reuse a tiered store exploits.
		run := cfg.Scaled(*rowScale)
		base.RunCfg = &run
		base.Dataset = data.NewRequestLog(*seed+9, run.DenseIn, run.Rows, run.Lookups)
		base.Pools = cluster.NewPools()
		defer base.Pools.Close()
	}

	svc, err := base.ServiceTime(*maxBatch)
	if err != nil {
		log.Fatal(err)
	}
	capacity := float64(*replicas) * float64(*maxBatch) / svc
	sloSec := slo.Seconds()
	if sloSec == 0 {
		sloSec = 2 * (maxWait.Seconds() + svc)
	}

	var offered []float64
	if *qps > 0 {
		offered = []float64{*qps}
	} else {
		for _, f := range strings.Split(*loads, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || x <= 0 {
				log.Fatalf("bad -loads entry %q", f)
			}
			offered = append(offered, x*capacity)
		}
	}

	fmt.Printf("serving %s across %d replicas (%s backend), policy B%d/w%s\n",
		cfg.Name, *replicas, strings.ToUpper(*backendName), *maxBatch, maxWait)
	fmt.Printf("modeled service %.3f ms per full batch, capacity %.0f req/s, SLO %.2f ms\n",
		svc*1e3, capacity, sloSec*1e3)
	if *functional {
		fmt.Printf("functional: %s scaled x%.3g executes on the %s GEMM kernel and the %s embedding kernel\n",
			cfg.Name, *rowScale, gemm.KernelISA(), embedding.KernelISA())
	}
	fmt.Printf("\n%-18s  %-12s  %7s  %6s  %6s  %8s  %8s  %8s  %10s\n",
		"policy", "offered q/s", "served", "shed", "mean B", "p50 ms", "p99 ms", "max ms", "served q/s")
	for _, pol := range []serve.Policy{
		{MaxBatch: *maxBatch, MaxWait: maxWait.Seconds()},
		{MaxBatch: *maxBatch, MaxWait: maxWait.Seconds(), SLO: sloSec},
	} {
		for _, rate := range offered {
			c := base
			c.Policy = pol
			c.OfferedQPS = rate
			res, err := serve.Run(c)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-18s  %12.0f  %7d  %6d  %6.1f  %8.2f  %8.2f  %8.2f  %10.0f\n",
				pol.Name(), rate, res.Served, res.Shed, res.MeanBatch,
				res.P50*1e3, res.P99*1e3, res.Max*1e3, res.Throughput)
			if *functional {
				reportPredictions(res)
			}
		}
	}
	fmt.Println("\nSLO rows shed what cannot finish in time, so their p99/max never exceed the SLO.")
}

// reportPredictions summarizes a functional run's served probabilities.
func reportPredictions(res *serve.Result) {
	var sum float64
	served := 0
	for _, p := range res.Preds {
		if !math.IsNaN(float64(p)) {
			sum += float64(p)
			served++
		}
	}
	if served == 0 {
		fmt.Fprintln(os.Stderr, "  (functional: every request was shed)")
		return
	}
	fmt.Printf("  functional: %d predictions computed, mean click probability %.4f\n",
		served, sum/float64(served))
}
