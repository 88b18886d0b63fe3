// Command bench is the repository's benchmark of record. It drives the
// simulator through four seeded workloads, each in its own process:
//
//	sweep     the evaluation-chapter sweep, one cell at a time
//	campaign  fault campaigns on the snapshot engine
//	service   reboundd under an open-loop read load and a closed-loop
//	          simulation load
//	cluster   campaigns through a coordinator and a cold HTTP worker
//
// One workload in this process (the form BENCHMARK.json's command takes):
//
//	bench -workload sweep -seed 1 -seconds 20 -trace 0
//
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as a JSON object on the last line of standard output and
// exits non-zero when any correctness check failed. Without -workload,
// or with -repeat N, it runs each workload in fresh child processes and
// prints a table; see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloads lists the benchmark's workloads in the order a full run
// executes them.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"sweep", runSweep},
	{"campaign", runCampaign},
	{"service", runService},
	{"cluster", runCluster},
}

// outDir holds everything a run leaves behind: result files, traces
// and the per-run scratch stores. It is relative to the working
// directory, which run.sh sets to the repository root.
const outDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (sweep|campaign|service|cluster) in this process; empty runs all in child processes")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (0: 20, or 2 with -smoke)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, Chrome trace file)")
	fs.IntVar(&o.repeat, "repeat", 0, "run each workload this many times in fresh processes and print medians and spreads")
	fs.BoolVar(&o.smoke, "smoke", false, "small inputs, for the test suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = 20
		if o.smoke {
			o.seconds = 2
		}
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.workload != "" && workloadFunc(o.workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.workload != "" && o.repeat == 0 {
		// A hung workload fails without printing a result, well before a
		// caller allowing 180 s for the run gives up on it.
		limit := time.Duration(o.seconds*float64(time.Second)) + 150*time.Second
		time.AfterFunc(limit, func() {
			fmt.Fprintf(stderr, "bench: %s did not finish within %s\n", o.workload, limit)
			os.Exit(1)
		})
		rep := runOne(o, bj, stderr)
		line, _ := json.Marshal(rep.resultLine())
		fmt.Fprintln(stdout, string(line))
		if !rep.Correct {
			return 1
		}
		return 0
	}
	return parent(o, bj, stdout, stderr)
}

func workloadFunc(name string) func(*run) error {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// --- one workload in this process ------------------------------------------

// run is the state of one workload execution: the measured window,
// operation tallies, correctness problems and the metrics it emits.
type run struct {
	opts  options
	dir   string    // scratch directory for stores, removed at the end
	tr    *tracer   // nil in the untraced run
	start time.Time // measured window
	end   time.Time
	dl    time.Time
	// peakRSS is the peak resident set while the fixed operations ran
	// (see fixedDone); 0 until then.
	peakRSS float64

	attempted, failed atomic.Int64

	mu       sync.Mutex
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	timings  map[string]summary
	digest   []string
	cleanup  func() // tears down the state the last set-up built
	rt       *runtimeSampler
}

// check records a correctness problem unless ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.mu.Lock()
		if len(r.problems) < 50 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
		r.mu.Unlock()
	}
	return ok
}

// op counts one attempted operation, failed unless ok.
func (r *run) op(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

func (r *run) setE2E(name string, v float64) {
	r.mu.Lock()
	r.e2e[name] = v
	r.mu.Unlock()
}

func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

// timing records a distribution for the printed table (with its sample
// count) and returns its summary.
func (r *run) timing(name string, xs []float64) summary {
	sm := summarize(xs)
	r.mu.Lock()
	r.timings[name] = sm
	r.mu.Unlock()
	return sm
}

// fixedDone marks the end of the workload's fixed operations: the
// seed-determined first operations of the window whose outputs form
// the sim_digest. peak_rss_mb is the peak resident set up to here, so
// it covers the same work in every run, however far the run gets.
func (r *run) fixedDone() {
	if r.peakRSS == 0 {
		r.peakRSS = peakRSSMB()
	}
}

// addDigest appends one simulated output to the workload's sim_digest.
// Only outputs of a fixed, seed-determined set of operations may be
// added, so the digest does not depend on how many operations fit in
// the measured window.
func (r *run) addDigest(s string) {
	r.mu.Lock()
	r.digest = append(r.digest, s)
	r.mu.Unlock()
}

// setup runs fn reps times and reports the median as setup_s. Each
// repetition builds the workload's state from scratch, starting from a
// heap that is collected and returned to the operating system, as in a
// fresh process; all but the last are torn down with the cleanup fn
// returned, the last is torn down when the run ends.
func (r *run) setup(reps int, fn func() (cleanup func(), err error)) error {
	var ds []float64
	var cleanup func()
	for i := 0; i < reps; i++ {
		if cleanup != nil {
			cleanup()
		}
		debug.FreeOSMemory()
		t := time.Now()
		c, err := fn()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t).Seconds())
		cleanup = c
	}
	r.cleanup = cleanup
	r.timing("setup_s", ds)
	r.setE2E("setup_s", median(ds))
	return nil
}

// begin opens the measured window. Set-up's garbage is collected and
// returned to the operating system first, and the peak-RSS counter is
// reset, so peak_rss_mb counts the window alone.
func (r *run) begin() {
	debug.FreeOSMemory()
	resetPeakRSS()
	r.start = time.Now()
	r.dl = r.start.Add(time.Duration(r.opts.seconds * float64(time.Second)))
	r.rt = startRuntimeSampler()
}

// expired reports whether the measured window has run out.
func (r *run) expired() bool { return !time.Now().Before(r.dl) }

// stop closes the measured window and returns its length in seconds.
func (r *run) stop() float64 {
	if r.end.IsZero() {
		r.end = time.Now()
		r.rt.stop()
		r.fixedDone()
		r.setE2E("peak_rss_mb", r.peakRSS)
	}
	return r.end.Sub(r.start).Seconds()
}

// report is the full record of one run, written to the result file.
type report struct {
	Host      hostFacts              `json:"host"`
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	SimDigest string                 `json:"sim_digest"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// NotExercised lists the per-layer metrics this workload does not
	// reach; they are reported as 0.
	NotExercised []string           `json:"not_exercised,omitempty"`
	Timings      map[string]summary `json:"timings"`
	Layers       []layerRow         `json:"layers,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
func (rep *report) resultLine() any {
	metrics := rep.EndToEnd
	if rep.Trace == 1 {
		metrics = rep.PerLayer
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics}
}

// runOne executes one workload in this process and returns its report.
// It never returns an incomplete report: a workload error is recorded
// as a failed check.
func runOne(o options, bj *benchmarkJSON, stderr io.Writer) *report {
	r := &run{opts: o,
		e2e: map[string]float64{}, layer: map[string]float64{}, timings: map[string]summary{}}
	if o.trace == 1 {
		r.tr = newTracer()
	}
	rep := &report{Host: stampHost(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Smoke: o.smoke}
	dir, err := os.MkdirTemp(mkdirAll(filepath.Join(outDir, "work")), o.workload+"-")
	if err != nil {
		r.check(false, "scratch directory: %v", err)
	} else {
		r.dir = dir
		if err := workloadFunc(o.workload)(r); err != nil {
			r.check(false, "%v", err)
		}
	}
	if r.cleanup != nil {
		r.cleanup()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	if !r.start.IsZero() {
		r.runtimeMetrics(r.stop())
	}

	rep.SimDigest = digestOf(r.digest)
	rep.EndToEnd = bj.values(bj.EndToEnd, r.e2e)
	rep.PerLayer = bj.values(bj.PerLayer, r.layer)
	for _, m := range bj.PerLayer {
		if _, ok := r.layer[m.Name]; !ok {
			rep.NotExercised = append(rep.NotExercised, m.Name)
		}
	}
	for _, m := range bj.EndToEnd {
		_, ok := r.e2e[m.Name]
		r.check(ok, "end-to-end metric %s not measured", m.Name)
	}
	for name := range r.e2e {
		r.check(bj.has(bj.EndToEnd, name), "end-to-end metric %s is not declared in BENCHMARK.json", name)
	}
	for name := range r.layer {
		r.check(bj.has(bj.PerLayer, name), "per-layer metric %s is not declared in BENCHMARK.json", name)
	}
	rep.Timings = r.timings
	if r.tr != nil {
		spans := r.tr.snapshot()
		rep.Layers = layerTable(spans)
		rep.TraceFile = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		r.check(writeChromeTrace(rep.TraceFile, spans) == nil, "writing %s", rep.TraceFile)
	}
	rep.Attempted, rep.Failed = r.attempted.Load(), r.failed.Load()
	r.check(rep.Attempted > 0, "no operation completed")
	r.check(rep.Failed == 0, "%d of %d operations failed", rep.Failed, rep.Attempted)
	rep.Problems = r.problems
	rep.Correct = len(r.problems) == 0

	printReport(stderr, rep)
	if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
		os.WriteFile(resultPath(o), data, 0o644)
	}
	return rep
}

func resultPath(o options) string {
	tag := ""
	if o.smoke {
		tag = "-smoke"
	}
	return filepath.Join(mkdirAll(filepath.Join(outDir, "results")),
		fmt.Sprintf("%s-seed%d-trace%d%s.json", o.workload, o.seed, o.trace, tag))
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%d  (nproc=%d GOMAXPROCS=%d %s, %s)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host.NProc, rep.Host.GOMAXPROCS,
		rep.Host.GoVersion, rep.Host.CPU)
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d sim_digest=%s\n",
		rep.Correct, rep.Attempted, rep.Failed, rep.SimDigest)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	printMetrics(w, "end-to-end", rep.EndToEnd)
	names := make([]string, 0, len(rep.Timings))
	for name := range rep.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "timings (n, p50, p90, p99, tail at the highest percentile with >=10 samples beyond):\n")
	for _, name := range names {
		t := rep.Timings[name]
		fmt.Fprintf(w, "  %-32s n=%-6d p50=%-10.4g p90=%-10.4g p99=%-10.4g tail(p%g)=%.4g\n",
			name, t.N, t.P50, t.P90, t.P99, t.TailLevel*100, t.Tail)
	}
	if rep.Trace == 1 {
		exercised := make(map[string]metricValue)
		for name, v := range rep.PerLayer {
			exercised[name] = v
		}
		for _, name := range rep.NotExercised {
			delete(exercised, name)
		}
		printMetrics(w, "per-layer (exercised by this workload)", exercised)
		printLayerTable(w, rep.Layers)
		fmt.Fprintf(w, "trace: %s (open in https://ui.perfetto.dev)\n", rep.TraceFile)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// --- child processes ---------------------------------------------------------

// parent runs the selected workloads in fresh child processes of this
// binary — -repeat times each, untraced and (with -trace 1) traced —
// and prints every end-to-end metric with its unit, the spread across
// repeats, the sim_digest agreement and the tracing overhead.
func parent(o options, bj *benchmarkJSON, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	reps := o.repeat
	if reps < 1 {
		reps = 1
	}
	status := 0
	for _, name := range names {
		var untraced []*report
		var traced *report
		for i := 0; i < reps; i++ {
			c := o
			c.workload, c.trace = name, 0
			rep, err := spawn(exe, c, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				status = 1
				continue
			}
			if !rep.Correct {
				status = 1
			}
			untraced = append(untraced, rep)
		}
		if o.trace == 1 {
			c := o
			c.workload, c.trace = name, 1
			rep, err := spawn(exe, c, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s traced: %v\n", name, err)
				status = 1
			} else {
				if !rep.Correct {
					status = 1
				}
				traced = rep
			}
		}
		if !summarizeRuns(stdout, bj, name, untraced, traced) {
			status = 1
		}
	}
	return status
}

// spawn runs one child and returns its report from the result file.
func spawn(exe string, o options, stderr io.Writer) (*report, error) {
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if last == "" {
		return nil, fmt.Errorf("child printed no result (%v)", runErr)
	}
	data, err := os.ReadFile(resultPath(o))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("result file: %w", err)
	}
	rep.Host.Argv = append([]string{exe}, args...)
	return &rep, nil
}

// summarizeRuns prints one workload's table and reports whether its
// runs agree: identical sim_digest across repeats and a matching
// digest in the traced run.
func summarizeRuns(w io.Writer, bj *benchmarkJSON, name string, untraced []*report, traced *report) bool {
	ok := true
	fmt.Fprintf(w, "\n## %s  (%d untraced run(s))\n", name, len(untraced))
	if len(untraced) == 0 {
		return false
	}
	h := untraced[0].Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s, %s, rev %s, seed %d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.GitRev, untraced[0].Seed)
	fmt.Fprintf(w, "%-16s %-6s %12s %12s %12s %12s %12s %9s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, m := range bj.EndToEnd {
		var xs []float64
		for _, rep := range untraced {
			xs = append(xs, rep.EndToEnd[m.Name].Value)
		}
		q1, q2, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(w, "%-16s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %8.1f%%\n",
			m.Name, m.Unit, q2, q1, q3, lo, hi, spread*100)
	}
	digest := untraced[0].SimDigest
	for i, rep := range untraced {
		fmt.Fprintf(w, "run %d: correct=%t attempted=%d failed=%d sim_digest=%s\n",
			i+1, rep.Correct, rep.Attempted, rep.Failed, rep.SimDigest)
		ok = ok && rep.Correct
		if rep.SimDigest != digest {
			fmt.Fprintf(w, "  sim_digest differs from run 1\n")
			ok = false
		}
	}
	if traced != nil {
		match := traced.SimDigest == digest
		fmt.Fprintf(w, "traced run: correct=%t sim_digest matches untraced: %t; trace %s\n",
			traced.Correct, match, traced.TraceFile)
		ok = ok && traced.Correct && match
		fmt.Fprintf(w, "tracing overhead (traced vs median untraced):\n")
		for _, m := range bj.EndToEnd {
			var xs []float64
			for _, rep := range untraced {
				xs = append(xs, rep.EndToEnd[m.Name].Value)
			}
			base := median(xs)
			if base != 0 {
				fmt.Fprintf(w, "  %-16s %+7.1f%%\n", m.Name, (traced.EndToEnd[m.Name].Value/base-1)*100)
			}
		}
	}
	return ok
}

// --- BENCHMARK.json ------------------------------------------------------------

type benchmarkJSON struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// loadBenchmarkJSON reads the metric declarations from BENCHMARK.json
// in the working directory or one of its two parents (the repository
// root when run from bench/).
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json", "../../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found: %w", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, ms := range [][]declared{bj.EndToEnd, bj.PerLayer} {
		for _, m := range ms {
			if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
				return nil, fmt.Errorf("BENCHMARK.json: invalid metric name %q", m.Name)
			}
		}
	}
	return &bj, nil
}

func (bj *benchmarkJSON) has(ms []declared, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// values pairs every declared metric with its measured value; metrics
// the run did not set read 0.
func (bj *benchmarkJSON) values(ms []declared, got map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.Name] = metricValue{Value: got[m.Name], Unit: m.Unit}
	}
	return out
}
