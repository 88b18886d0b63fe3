// Package benchhot defines the simulator hot-path benchmark bodies.
// They are shared by two entry points: the root bench_hotpath_test.go
// wrappers (go test -bench=Hot) and cmd/benchhot, which runs them via
// testing.Benchmark and emits machine-readable results into
// BENCH_hotpath.json so the repo carries a performance trajectory
// across PRs (see README "Performance").
//
// The benchmarks cover the layers the per-op pipeline feeds:
//
//   - SingleCell: one steady-state simulation cell; each benchmark op
//     is ONE committed instruction, so ns/op is the per-instruction cost
//     of the workload-gen -> cache -> directory -> signature -> log
//     pipeline and allocs/op is its steady-state allocation rate (the
//     0-allocs/op contract).
//   - Run256: the same per-instruction cost on a 256-processor,
//     8-shard null-scheme machine (also 0 allocs/op).
//   - Fig62Sweep: the full Figure 6.2 sweep (26 cells) on a fresh
//     runner each iteration — the figure-driver throughput a user sees.
//   - ServicePath: the reboundd HTTP service answering a POST /v1/runs
//     that hits the persistent store — the service-path request rate.
//   - CampaignTrial: one fault-injected Monte Carlo trial (restore the
//     warmed machine snapshot, inject, recover, verify) — the unit of
//     work a fault campaign multiplies by thousands, so regressions
//     here scale with trial count exactly as SingleCell regressions
//     scale with sweeps. The warmup is paid once outside the timer,
//     exactly as the campaign engine amortizes it.
//   - CampaignTrialParallel: CampaignTrial fanned across all CPUs at
//     GOMAXPROCS=NumCPU, all workers forked (copy-on-write) from ONE
//     shared warm snapshot — the parallel-scaling row of the
//     trajectory (every other row is recorded at the process
//     default). cmd/benchhot's -check gates this row at >=2x the
//     serial row on runners with >=4 cores.
package benchhot

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// SingleCellSpec is the cell SingleCell measures: a Figure 6.2 cell
// (SPLASH-2 FFT under Rebound at the quick scale's full machine size).
func SingleCellSpec() harness.Spec {
	return harness.Spec{App: "FFT", Procs: harness.Quick.ProcsLarge,
		Scheme: "Rebound", Scale: harness.Quick}
}

// SingleCell benchmarks the steady-state per-op pipeline of one cell.
// The machine is built and warmed past its first checkpoint intervals
// outside the timer; the timed region commits exactly b.N instructions.
func SingleCell(b *testing.B) {
	m, err := harness.Build(SingleCellSpec())
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up: well past cold caches and the first checkpoint rounds.
	m.Run(uint64(4*harness.Quick.Interval) * uint64(m.Cfg.NProcs))
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(uint64(b.N))
	b.StopTimer()
}

// Fig62Sweep benchmarks the full Figure 6.2 sweep on a fresh runner
// (no memoized cells) per iteration.
func Fig62Sweep(b *testing.B) {
	specs := harness.Fig62Specs(harness.Quick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(0)
		if _, err := r.Run(context.Background(), specs...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// CampaignTrialSpec is the campaign CampaignTrial samples trials from:
// the SingleCell workload cell at a small machine size, two faults per
// trial over a short window.
func CampaignTrialSpec() campaign.Spec {
	return campaign.Spec{
		Base:   harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick},
		Trials: campaign.MaxTrials, // index headroom; the bench runs b.N trials
		Faults: 2,
		Window: 60_000,
		Seed:   1,
	}
}

// CampaignTrial benchmarks the fault path end to end through the
// snapshot engine: each op is one Monte Carlo trial — restore the
// warmed machine snapshot, inject two faults, run the distributed
// recovery, settle and verify. The build-and-warm happens once outside
// the timer (the campaign engine amortizes it the same way). The
// regression gate guards ops/sec and allocs/op (fault bookkeeping and
// per-trial records allocate; rebuild/warm must not).
func CampaignTrial(b *testing.B) {
	spec := CampaignTrialSpec()
	tr := campaign.NewTrialRunner(spec)
	if _, err := tr.Run(0); err != nil { // build + warm + snapshot
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial, err := tr.Run(i)
		if err != nil {
			b.Fatal(err)
		}
		if !trial.VerifyOK {
			b.Fatalf("trial %d failed verification: %s", i, trial.VerifyError)
		}
	}
	b.StopTimer()
	assertForkEconomics(b, tr)
}

// assertForkEconomics fails the benchmark if the runner silently fell
// back to per-trial build+warm: a fallback still produces correct
// trials, so only the counters expose it — and a fallback row recorded
// into the trajectory would gate future PRs against garbage numbers.
func assertForkEconomics(b *testing.B, tr *campaign.TrialRunner) {
	b.Helper()
	if wu, _, _, fr := tr.Counters(); wu != 1 || fr != 0 {
		b.Fatalf("snapshot engine fell back: warmups=%d fresh=%d, want 1 warmup and 0 fresh builds", wu, fr)
	}
}

// CampaignTrialParallel is CampaignTrial across all CPUs: trials fan
// out over worker machines forked (copy-on-write) from one shared warm
// snapshot at GOMAXPROCS=NumCPU, measuring how trial throughput scales
// with cores (the rest of the trajectory is recorded at the process's
// default GOMAXPROCS, which CI pins to 1 for stability). The gate on
// this row is cmd/benchhot's scaling check: >=2x the serial row at >=4
// cores, at no more allocs/op than serial.
func CampaignTrialParallel(b *testing.B) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	spec := CampaignTrialSpec()
	tr := campaign.NewTrialRunner(spec)
	// Pre-warm the fork pool outside the timer: one build+warm, then
	// one copy-on-write fork per CPU. Each goroutine's first acquire
	// would otherwise pay its fork inside the measured region and skew
	// the recorded scaling row.
	if err := tr.Prewarm(runtime.NumCPU()); err != nil {
		b.Fatal(err)
	}
	if trial, err := tr.Run(0); err != nil || !trial.VerifyOK {
		b.Fatalf("prime trial: %v %s", err, trial.VerifyError)
	}
	var next int64
	var firstErr atomic.Value // error string; Fatal must not run on worker goroutines
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(atomic.AddInt64(&next, 1))
			trial, err := tr.Run(i)
			switch {
			case err != nil:
				firstErr.CompareAndSwap(nil, fmt.Sprintf("trial %d: %v", i, err))
				return
			case !trial.VerifyOK:
				firstErr.CompareAndSwap(nil, fmt.Sprintf("trial %d failed verification: %s", i, trial.VerifyError))
				return
			}
		}
	})
	b.StopTimer()
	if msg := firstErr.Load(); msg != nil {
		b.Fatal(msg)
	}
	assertForkEconomics(b, tr)
}

// ShardedCellSpec is the cell the sharded-exec benchmarks measure: a
// 256-processor machine under Rebound with its memory and directory
// copies split into 8 ranges — large enough that the per-range and
// per-processor tasks of the parallel snapshot/restore plane
// (machine.parallelDo) dominate the per-op cost.
func ShardedCellSpec() harness.Spec {
	return harness.Spec{
		App: "FFT", Procs: 256, Scheme: "Rebound",
		Scale: harness.Scale{
			Name: "sharded-bench", ProcsLarge: 256, ProcsSmall: 256,
			InstrPerProc: 4_000, Interval: 2_000, DetectLatency: 1_500, Seed: 1,
		},
		Shards: 8,
	}
}

// shardedCell holds the warmed 256-proc machine shared by
// ShardedSingleCell and ShardedSingleCellParallel. Building and
// warming a machine this size costs seconds; testing.Benchmark calls
// the body several times with growing b.N, so the warmup is paid once
// per process, exactly as a campaign amortizes it. Sharing is safe:
// every benchmark op restores the machine to the same settled point,
// and cmd/benchhot runs benchmarks sequentially.
var shardedCell struct {
	once sync.Once
	m    *machine.Machine
	snap *machine.MachineSnapshot
	err  error
}

func shardedCellInit() {
	spec := ShardedCellSpec()
	m, err := harness.Build(spec)
	if err != nil {
		shardedCell.err = err
		return
	}
	m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 2)
	if !m.SettleForSnapshot(sim.Cycle(4_000_000)) {
		shardedCell.err = fmt.Errorf("sharded cell never reached a snapshot-safe point")
		return
	}
	snap := new(machine.MachineSnapshot)
	if err := m.Snapshot(snap); err != nil {
		shardedCell.err = err
		return
	}
	shardedCell.m, shardedCell.snap = m, snap
}

// shardedCellBody is the shared measured region: each op is one full
// snapshot + restore round trip of the 256-proc machine — the state-
// plane work a campaign pays per trial and a sweep pays per warm-cache
// hit, fanned across GOMAXPROCS workers by machine.parallelDo. The
// serial and parallel variants differ only in GOMAXPROCS, so their
// ratio is the intra-machine scaling the "sharded-exec" gate guards.
func shardedCellBody(b *testing.B) {
	shardedCell.once.Do(shardedCellInit)
	if shardedCell.err != nil {
		b.Fatal(shardedCell.err)
	}
	m, snap := shardedCell.m, shardedCell.snap
	if err := m.Restore(snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Snapshot(snap); err != nil {
			b.Fatal(err)
		}
		if err := m.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// ShardedSingleCell measures the snapshot/restore round trip at the
// process's default GOMAXPROCS (CI pins 1: the serial reference row).
func ShardedSingleCell(b *testing.B) { shardedCellBody(b) }

// ShardedSingleCellParallel is the same round trip at
// GOMAXPROCS=NumCPU: machine.parallelDo fans the per-processor and
// per-range save/load tasks across cores. cmd/benchhot gates this row
// at >=1.8x the serial row on runners with >=4 cores (no alloc-parity
// requirement: the worker pool itself allocates a few objects per op,
// which the serial single-worker path skips).
func ShardedSingleCellParallel(b *testing.B) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	shardedCellBody(b)
}

// run256 holds the warmed Run256 machine. testing.Benchmark calls the
// body several times with growing b.N; each call continues the same
// deterministic run, so the warmup is paid once per process.
var run256 struct {
	once sync.Once
	m    *machine.Machine
}

// Run256 measures the per-instruction cost of a large machine: each op
// is one committed instruction of a 256-proc FFT machine under the null
// scheme with Shards: 8, on the sequential sim.Engine
// (compare SingleCell, a 16-proc Rebound cell).
func Run256(b *testing.B) {
	run256.once.Do(func() {
		cfg := machine.DefaultConfig(256)
		cfg.Shards = 8
		m := machine.New(cfg, workload.ByName("FFT"), machine.NullScheme{})
		m.Run(256 * 2_000) // warm caches, directory and DRAM state
		run256.m = m
	})
	b.ReportAllocs()
	b.ResetTimer()
	run256.m.Run(uint64(b.N))
	b.StopTimer()
}

// Fig62SweepSharded is Fig62Sweep with every cell at Shards: 4: the
// whole-figure regression canary for the range-split snapshot plane
// (results are byte-identical to the Shards: 0 sweep).
func Fig62SweepSharded(b *testing.B) {
	specs := harness.Fig62Specs(harness.Quick)
	for i := range specs {
		specs[i].Shards = 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(0)
		if _, err := r.Run(context.Background(), specs...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// ServicePath benchmarks the service request path: POST /v1/runs
// answered from the store (the steady state of a figure-serving
// deployment; the one simulation happens outside the timer).
func ServicePath(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchhot-store-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Runner: harness.NewRunner(0), Store: st, Scale: harness.Quick,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const body = `{"app":"FFT","procs":4,"scheme":"Rebound"}`
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
			strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // prime: the one real simulation
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Cache-hit alloc assertion: a GET of the stored record is served
	// zero-copy from the store's raw bytes, so the handler itself must
	// stay within a small fixed alloc budget (headers + path routing —
	// NOT an unmarshal/re-marshal of the ~30 KB record, which used to
	// dominate this path). Measured handler-side, without client noise.
	key := store.KeyOf(harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick})
	req, err := http.NewRequest("GET", "/v1/runs/"+key, nil)
	if err != nil {
		b.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		w := nopResponseWriter{h: make(http.Header)}
		srv.ServeHTTP(w, req)
	}); avg > serveGetAllocBudget {
		b.Fatalf("cache-hit GET allocates %.1f allocs/op, budget %d — record re-marshalling crept back in?",
			avg, serveGetAllocBudget)
	}
}

// serveGetAllocBudget bounds the handler-side allocations of a
// cache-hit GET /v1/runs/{key} (mux routing, header map, ETag string —
// the record bytes themselves are shared, not copied).
const serveGetAllocBudget = 32

// nopResponseWriter discards the response; the header map is the only
// allocation it contributes.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopResponseWriter) WriteHeader(int)             {}
