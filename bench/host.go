package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostFacts stamps every result with what it was measured on.
type hostFacts struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	CPU        string   `json:"cpu"`
	GitRev     string   `json:"git_rev"`
	Argv       []string `json:"argv"`
}

func stampHost() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		GitRev:     gitRev(),
		Argv:       os.Args,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev returns the checked-out commit, or "unknown" outside a git
// work tree. The lookup never climbs above the working directory.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) count from the
// current resident set. Where that is not supported the peak covers the
// whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func digestOf(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runtimeSampler reads the Go runtime's metrics over the measured
// window: GC CPU share, allocation rate and the peak live heap (sampled
// every 20 ms).
type runtimeSampler struct {
	first    []metrics.Sample
	last     []metrics.Sample
	done     chan struct{}
	wg       sync.WaitGroup
	heapPeak uint64 // written by the sampling goroutine until stop returns
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{first: readRuntime(), done: make(chan struct{})}
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if h := uint64(sampleValue(readRuntime()[3])); h > rs.heapPeak {
				rs.heapPeak = h
			}
			select {
			case <-rs.done:
				return
			case <-t.C:
			}
		}
	}()
	return rs
}

// stop ends the sampling; call it once.
func (rs *runtimeSampler) stop() {
	close(rs.done)
	rs.wg.Wait()
	rs.last = readRuntime()
}

// runtimeMetrics sets the go.* per-layer metrics for a window of
// elapsed seconds.
func (r *run) runtimeMetrics(elapsed float64) {
	rs := r.rt
	if elapsed <= 0 {
		return
	}
	d := func(i int) float64 { return sampleValue(rs.last[i]) - sampleValue(rs.first[i]) }
	if total := d(1); total > 0 {
		r.setLayer("go.gc_cpu_pct", d(0)/total*100)
	}
	r.setLayer("go.alloc_mb_per_s", d(2)/(1<<20)/elapsed)
	r.setLayer("go.heap_peak_mb", float64(rs.heapPeak)/(1<<20))
}
