package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
)

// The experiment runner. Every (app, procs, scheme, scale, ioforce)
// cell of the evaluation is an independent simulation of its own
// sim.Engine/machine instance, so a sweep is embarrassingly parallel:
// Run fans cells out across a worker pool while a per-Spec memoization
// cache guarantees each distinct cell is simulated at most once per
// Runner, no matter how many figures request it (the "none" baseline
// alone is shared by Figs 6.3–6.6, 6.8 and the ablations).
//
// Determinism contract: a cell's simulation is a pure function of its
// Spec. The machine seed is derived from (Scale.Seed, Spec) by
// DeriveSeed, never from scheduling order, so parallel and serial
// execution produce byte-identical Results (see determinism_test.go).

// Key returns the canonical identity of the spec: every field that can
// influence the simulation, in a fixed order. Two specs with equal keys
// produce identical Results and share one cache slot.
func (s Spec) Key() string {
	// Shards 0 and 1 both mean one snapshot-plane range, and every
	// shard count computes the same results. The count still stays in
	// the cell identity (canonicalised so 0 and 1 share one cell), so
	// stored results keep their addresses. Campaign keys and
	// warm-snapshot keys drop it.
	sh := s.Shards
	if sh <= 1 {
		sh = 1
	}
	return fmt.Sprintf("%s|p=%d|%s|io=%d|wsig=%d|dep=%d|awb=%t|sh=%d|%s|seed=%d|instr=%d|int=%d|L=%d|pl=%d|ps=%d",
		s.App, s.Procs, s.Scheme, s.IOForce, s.WSIGBits, s.DepSets, s.LogAllWB, sh,
		s.Scale.Name, s.Scale.Seed, s.Scale.InstrPerProc, s.Scale.Interval,
		uint64(s.Scale.DetectLatency), s.Scale.ProcsLarge, s.Scale.ProcsSmall)
}

// DeriveSeed maps (Scale.Seed, Spec) to the machine seed: an FNV-1a
// hash of the spec's workload identity — App, Procs and the Scale
// parameters, but deliberately NOT the scheme or hardware knobs —
// finished with a splitmix64 round. Two properties follow. First, the
// seed is a pure function of the spec, never of which worker runs the
// cell or in what order, which is what makes parallel execution
// bit-identical to serial. Second, every scheme (and the "none"
// baseline) of a given workload shares one instruction stream, so
// overhead comparisons are paired, exactly as if the same program had
// been run under each scheme.
func DeriveSeed(s Spec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|p=%d|seed=%d|instr=%d|int=%d|L=%d",
		s.App, s.Procs, s.Scale.Seed, s.Scale.InstrPerProc,
		s.Scale.Interval, uint64(s.Scale.DetectLatency))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// cacheEntry memoizes one cell. The first requester to install the
// entry (under Runner.mu) becomes its executor; the done channel both
// deduplicates concurrent requests for the same Spec — singleflight:
// later requesters block until the executor finishes — and publishes
// res/err safely. Unlike a sync.Once, a blocked requester can abandon
// the wait when its context is cancelled; the executor still runs the
// cell to completion and the result stays cached.
type cacheEntry struct {
	done chan struct{}
	res  Result
	err  error
}

// recoveryEntry memoizes one Fig 6.6c recovery-latency measurement.
type recoveryEntry struct {
	once sync.Once
	ms   float64
}

// Runner schedules experiment cells across a bounded worker pool with
// per-Spec memoization. Every cell it simulates runs on a machine
// freshly built from its spec (runSpec). The zero value is not usable;
// call NewRunner. A Runner is safe for concurrent use by multiple
// goroutines.
type Runner struct {
	workers int
	mu      sync.Mutex
	cache   map[string]*cacheEntry
	rec     map[string]*recoveryEntry
}

// NewRunner returns a runner with the given parallelism; workers <= 0
// selects GOMAXPROCS. NewRunner(1) is the serial configuration used by
// the determinism tests as the reference executor.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers,
		cache: make(map[string]*cacheEntry),
		rec:   make(map[string]*recoveryEntry)}
}

// FanOut feeds indices [0, n) to the runner's worker pool, blocking
// until every handed-out index has been processed. A canceled context
// stops feeding and returns ctx.Err(); indices already handed out run
// to completion, indices never fed are simply skipped. It is the
// exported form of the scheduling underneath Run/PrefetchRecovery, for
// callers (the campaign engine) whose units of work are not Spec cells.
func (r *Runner) FanOut(ctx context.Context, n int, fn func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return r.fanOut(ctx, n, fn)
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// CachedRuns reports how many distinct cells the runner has memoized.
func (r *Runner) CachedRuns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// RunOne executes spec, or returns its memoized Result if this runner
// has already executed (or is currently executing) an identical spec.
//
// Context semantics: a cell that has not started is never started under
// a cancelled context, and a caller waiting on another request's
// in-flight execution of the same spec stops waiting when its own
// context is cancelled. A cell that has already started runs to
// completion regardless (the engine has no preemption point) and its
// Result stays cached for future requests.
func (r *Runner) RunOne(ctx context.Context, spec Spec) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := spec.Key()
	r.mu.Lock()
	e, ok := r.cache[key]
	if !ok {
		if err := ctx.Err(); err != nil {
			r.mu.Unlock()
			return Result{}, err
		}
		e = &cacheEntry{done: make(chan struct{})}
		r.cache[key] = e
		r.mu.Unlock()
		func() {
			// The entry must be published even if the simulator panics
			// (e.g. a config the machine rejects at construction):
			// otherwise every later request for this spec would block on
			// done forever. The panic is converted to a cached error —
			// the cell is a pure function of its spec, so retrying it
			// would panic identically.
			defer func() {
				if p := recover(); p != nil {
					e.err = fmt.Errorf("harness: %s: panic: %v", key, p)
				}
				close(e.done)
			}()
			e.res, e.err = runSpec(spec)
		}()
		return e.res, e.err
	}
	r.mu.Unlock()
	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// fanOut feeds indices [0, n) to the worker pool. A canceled context
// stops feeding and returns ctx.Err(); indices already handed out run
// to completion. The pre-select ctx check makes an already-canceled
// context deterministic: no index is ever fed.
func (r *Runner) fanOut(ctx context.Context, n int, fn func(int)) error {
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	var cancelErr error
feed:
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			cancelErr = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return cancelErr
}

// Run executes all specs across the worker pool and returns their
// Results in spec order. Duplicate specs (and specs already cached)
// cost one simulation. A canceled context stops cells that have not
// started; cells already simulating run to completion (the engine has
// no preemption point). The first error encountered is returned with
// the partial results; error-free cells keep their Results either way.
func (r *Runner) Run(ctx context.Context, specs ...Spec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	done := make([]bool, len(specs))
	cancelErr := r.fanOut(ctx, len(specs), func(i int) {
		results[i], errs[i] = r.RunOne(ctx, specs[i])
		done[i] = true
	})
	for i := range errs {
		if errs[i] == nil && !done[i] {
			errs[i] = cancelErr
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// RecoveryLatency returns the memoized Fig 6.6c recovery latency of
// spec in milliseconds (RecoveryLatencyMS is the uncached primitive).
// Like simulation cells, a measurement is a pure function of its spec,
// so it is computed at most once per runner.
func (r *Runner) RecoveryLatency(spec Spec) float64 {
	r.mu.Lock()
	e, ok := r.rec[spec.Key()]
	if !ok {
		e = &recoveryEntry{}
		r.rec[spec.Key()] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.ms = RecoveryLatencyMS(spec) })
	return e.ms
}

// PrefetchRecovery measures the recovery latencies of specs across the
// worker pool so later RecoveryLatency calls are cache hits.
func (r *Runner) PrefetchRecovery(ctx context.Context, specs ...Spec) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.fanOut(ctx, len(specs), func(i int) { r.RecoveryLatency(specs[i]) })
}

// CachedRecoveries reports how many recovery measurements are memoized.
func (r *Runner) CachedRecoveries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rec)
}

// RunSerial is the escape hatch: it executes specs one at a time on
// the calling goroutine, in order, through the same memoization cache.
// It exists as the reference executor the determinism suite compares
// Run against, and for debugging with clean single-threaded stacks.
func (r *Runner) RunSerial(ctx context.Context, specs ...Spec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(specs))
	for i, spec := range specs {
		res, err := r.RunOne(ctx, spec)
		if err != nil {
			return results, err
		}
		results[i] = res
	}
	return results, nil
}

// --- default runner -------------------------------------------------------

// defaultRunner backs the package-level API: one memoization domain
// per process, so figure drivers, benchmarks and tests share baselines.
var (
	defaultMu     sync.RWMutex
	defaultRunner = NewRunner(0)
)

// Default returns the process-wide runner.
func Default() *Runner {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultRunner
}

// SetWorkers replaces the process-wide runner with a fresh one of the
// given parallelism (<= 0 means GOMAXPROCS, 1 means serial), dropping
// its memoized results. Intended for program startup (cmd/figures
// -serial / -workers).
func SetWorkers(n int) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultRunner = NewRunner(n)
}

// Run executes specs on the process-wide runner's worker pool.
func Run(ctx context.Context, specs ...Spec) ([]Result, error) {
	return Default().Run(ctx, specs...)
}

// RunSerial executes specs serially on the process-wide runner.
func RunSerial(ctx context.Context, specs ...Spec) ([]Result, error) {
	return Default().RunSerial(ctx, specs...)
}

// RunOne executes one spec through the process-wide runner.
func RunOne(ctx context.Context, spec Spec) (Result, error) {
	return Default().RunOne(ctx, spec)
}

// mustRunAll prefetches specs in parallel and returns their results in
// order; figure drivers assemble tables from these memoized cells.
func mustRunAll(specs []Spec) []Result {
	results, err := Run(context.Background(), specs...)
	if err != nil {
		panic(err)
	}
	return results
}

// withBaselines appends the "none" baseline cell of every spec that
// needs one, deduplicated, so a single prefetch covers Overhead calls.
func withBaselines(specs []Spec) []Spec {
	out := make([]Spec, 0, 2*len(specs))
	seen := make(map[string]bool, 2*len(specs))
	add := func(s Spec) {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	for _, s := range specs {
		add(s)
		if s.Scheme != "none" {
			add(baselineSpec(s))
		}
	}
	return out
}
