package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo is the header every result carries: what this machine is and
// the two roofs measured in the same run, so a GFLOP/s or GB/s figure can
// be read against what the host could do at that moment.
type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GoArch     string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LLCBytes   int64   `json:"llc_bytes"`
	Seed       int64   `json:"seed"`
	FMAGflops  float64 `json:"host.fma_gflops,omitempty"`
	TriadGBs   float64 `json:"host.triad_gbs,omitempty"`
	// TriadArrayBytes is the size of each of the three triad arrays;
	// TriadBeyondLLC says whether it reached the 4 × LLC the roof wants
	// (hypervisors that report a socket-wide L3 make that unaffordable).
	TriadArrayBytes int64 `json:"triad_array_bytes,omitempty"`
	TriadBeyondLLC  bool  `json:"triad_beyond_4x_llc,omitempty"`
}

func readHostInfo(seed int64) hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GoArch:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// llcBytes returns cpu0's largest cache as sysfs reports it, 0 if unknown.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// peakRSSMB returns this process's high-water resident set (VmHWM) in MB,
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// onAllProcs runs body(worker, workers) on GOMAXPROCS goroutines and waits.
func onAllProcs(body func(w, workers int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, workers)
		}(w)
	}
	wg.Wait()
}

var fmaSink float32

// fmaChains runs n rounds of eight independent float32 multiply-add chains
// (16 flops a round): enough independent work to keep the FP pipes full
// with the scalar code the gc compiler emits for the repo's kernels, so it
// is the roof those kernels can be held against (not the CPU's vector peak).
func fmaChains(n int) float32 {
	a0, a1, a2, a3 := float32(1.0), float32(1.1), float32(1.2), float32(1.3)
	a4, a5, a6, a7 := float32(1.4), float32(1.5), float32(1.6), float32(1.7)
	const m, c = float32(0.999999), float32(1e-7)
	for i := 0; i < n; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// measureFMA returns the best-of-reps multiply-add rate over all procs.
func measureFMA(quick bool) float64 {
	rounds, reps := 20_000_000, 3
	if quick {
		rounds, reps = 200_000, 1
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		var mu sync.Mutex
		t0 := time.Now()
		onAllProcs(func(int, int) {
			v := fmaChains(rounds)
			mu.Lock()
			fmaSink += v
			mu.Unlock()
		})
		flops := 16 * float64(rounds) * float64(runtime.GOMAXPROCS(0))
		if g := flops / time.Since(t0).Seconds() / 1e9; g > best {
			best = g
		}
	}
	return best
}

// triadCapBytes bounds each triad array: 4 × LLC is the target, but a
// virtualised socket-wide L3 (hundreds of MB) would make three such arrays
// cost seconds and gigabytes per run.
const triadCapBytes = 128 << 20

// measureTriad runs STREAM triad a = b + s·c over float32 arrays split
// across all procs and returns the best-of-reps rate in computed GB/s
// (3 × 4 bytes per element: two reads and one write, write-allocate traffic
// not counted), with the array size used.
func measureTriad(llc int64, quick bool) (gbs float64, arrayBytes int64, beyond bool) {
	arrayBytes = 4 * llc
	if arrayBytes < 32<<20 {
		arrayBytes = 32 << 20
	}
	if arrayBytes > triadCapBytes {
		arrayBytes = triadCapBytes
	}
	reps := 4
	if quick {
		arrayBytes, reps = 1<<20, 1
	}
	n := int(arrayBytes / 4)
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		onAllProcs(func(w, workers int) {
			lo, hi := n*w/workers, n*(w+1)/workers
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		if g := 12 * float64(n) / time.Since(t0).Seconds() / 1e9; g > gbs {
			gbs = g
		}
	}
	fmaSink += a[n/2]
	return gbs, arrayBytes, llc > 0 && arrayBytes >= 4*llc
}

// calibrate fills the two roofs of the header.
func (h *hostInfo) calibrate(quick bool) {
	h.FMAGflops = measureFMA(quick)
	h.TriadGBs, h.TriadArrayBytes, h.TriadBeyondLLC = measureTriad(h.LLCBytes, quick)
}
