package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testSpec(app, scheme string) Spec {
	return Spec{App: app, Procs: 4, Scheme: scheme, Scale: Quick}
}

func TestKeyCanonical(t *testing.T) {
	a := testSpec("FFT", "Rebound")
	b := testSpec("FFT", "Rebound")
	if a.Key() != b.Key() {
		t.Fatal("equal specs produced different keys")
	}
	variants := []Spec{
		testSpec("Ocean", "Rebound"),
		testSpec("FFT", "Global"),
		{App: "FFT", Procs: 8, Scheme: "Rebound", Scale: Quick},
		{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Quick, IOForce: 100},
		{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Quick, WSIGBits: 256},
		{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Quick, DepSets: 2},
		{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Quick, LogAllWB: true},
		{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Full},
	}
	seen := map[string]bool{a.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("key collision: %q", v.Key())
		}
		seen[v.Key()] = true
	}
}

// TestKeyAndSeedMatchFormatReference pins Key and DeriveSeed to the
// fmt forms they replaced, byte for byte, over every cell of both
// sweeps and a set of knob variants: keys are store addresses, and a
// seed change would change every simulation.
func TestKeyAndSeedMatchFormatReference(t *testing.T) {
	refKey := func(s Spec) string {
		sh := s.Shards
		if sh <= 1 {
			sh = 1
		}
		return fmt.Sprintf("%s|p=%d|%s|io=%d|wsig=%d|dep=%d|awb=%t|sh=%d|%s|seed=%d|instr=%d|int=%d|L=%d|pl=%d|ps=%d",
			s.App, s.Procs, s.Scheme, s.IOForce, s.WSIGBits, s.DepSets, s.LogAllWB, sh,
			s.Scale.Name, s.Scale.Seed, s.Scale.InstrPerProc, s.Scale.Interval,
			uint64(s.Scale.DetectLatency), s.Scale.ProcsLarge, s.Scale.ProcsSmall)
	}
	refSeed := func(s Spec) uint64 {
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
	quick, full := SweepSpecs(Quick), SweepSpecs(Full)
	if len(quick) == 0 || len(full) == 0 {
		t.Fatalf("sweeps of %d and %d cells", len(quick), len(full))
	}
	specs := append(quick, full...)
	odd := Scale{Name: "", ProcsLarge: -1, InstrPerProc: 1<<64 - 1, Interval: 7, DetectLatency: 1<<64 - 1, Seed: 1<<64 - 1}
	specs = append(specs,
		Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Quick, IOForce: 1 << 40, WSIGBits: 256,
			DepSets: 2, LogAllWB: true, Shards: 8},
		Spec{App: "Radix", Procs: -3, Scheme: "", Scale: odd, WSIGBits: -1, DepSets: -2, Shards: -4},
		Spec{App: "Barnes", Procs: MaxProcs, Scheme: "Global_DWB", Scale: Full, Shards: 1})
	for _, s := range specs {
		if got, want := s.Key(), refKey(s); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
		if got, want := DeriveSeed(s), refSeed(s); got != want {
			t.Fatalf("DeriveSeed(%s) = %#x, want %#x", s.Key(), got, want)
		}
	}
}

func TestDeriveSeedPairsSchemes(t *testing.T) {
	// The seed is a pure function of the workload identity: every scheme
	// and hardware knob of one workload shares the instruction stream.
	base := DeriveSeed(testSpec("FFT", "none"))
	if got := DeriveSeed(testSpec("FFT", "Rebound")); got != base {
		t.Fatalf("scheme changed the derived seed: %d vs %d", got, base)
	}
	knob := testSpec("FFT", "Rebound")
	knob.WSIGBits = 256
	if got := DeriveSeed(knob); got != base {
		t.Fatal("WSIG knob changed the derived seed")
	}
	// Different workloads decorrelate.
	if DeriveSeed(testSpec("Ocean", "none")) == base {
		t.Fatal("different app produced the same seed")
	}
	other := testSpec("FFT", "none")
	other.Procs = 8
	if DeriveSeed(other) == base {
		t.Fatal("different processor count produced the same seed")
	}
	full := Spec{App: "FFT", Procs: 4, Scheme: "none", Scale: Full}
	if DeriveSeed(full) == base {
		t.Fatal("different scale produced the same seed")
	}
	if DeriveSeed(testSpec("FFT", "none")) == 0 {
		t.Fatal("derived seed is zero")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(2)
	spec := testSpec("Volrend", "Rebound")
	a, err := r.RunOne(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.St != b.St {
		t.Fatal("second RunOne re-simulated instead of returning the memoized result")
	}
	if r.CachedRuns() != 1 {
		t.Fatalf("CachedRuns = %d, want 1", r.CachedRuns())
	}
	// A batch full of duplicates costs one simulation.
	res, err := r.Run(context.Background(), spec, spec, spec, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res {
		if got.St != a.St {
			t.Fatalf("result %d not served from the cache", i)
		}
	}
	if r.CachedRuns() != 1 {
		t.Fatalf("CachedRuns after batch = %d, want 1", r.CachedRuns())
	}
}

func TestRunPreservesSpecOrder(t *testing.T) {
	r := NewRunner(0)
	specs := []Spec{
		testSpec("FFT", "none"),
		testSpec("Volrend", "none"),
		testSpec("FFT", "Rebound"),
		testSpec("Cholesky", "none"),
	}
	res, err := r.Run(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(res), len(specs))
	}
	for i := range specs {
		if res[i].Spec.Key() != specs[i].Key() {
			t.Fatalf("result %d is %s, want %s", i, res[i].Spec.Key(), specs[i].Key())
		}
	}
}

func TestRunReportsErrors(t *testing.T) {
	r := NewRunner(2)
	_, err := r.Run(context.Background(),
		testSpec("FFT", "none"), testSpec("NoSuchApp", "Rebound"))
	if err == nil {
		t.Fatal("bad spec in batch not reported")
	}
	if _, err := r.Run(context.Background(), testSpec("FFT", "bogus-scheme")); err == nil {
		t.Fatal("bad scheme in batch not reported")
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	r := NewRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, testSpec("FFT", "none")); err == nil {
		t.Fatal("cancelled context not surfaced by Run")
	}
	if _, err := r.RunSerial(ctx, testSpec("FFT", "none")); err == nil {
		t.Fatal("cancelled context not surfaced by RunSerial")
	}
}

func TestRunOneHonorsCancelledContext(t *testing.T) {
	r := NewRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := testSpec("FFT", "none")
	if _, err := r.RunOne(ctx, spec); err == nil {
		t.Fatal("cancelled context not surfaced by RunOne")
	}
	// The cancelled request must not have started (or poisoned) the cell:
	// a live context simulates it normally afterwards.
	if r.CachedRuns() != 0 {
		t.Fatalf("cancelled RunOne left %d cache entries", r.CachedRuns())
	}
	res, err := r.RunOne(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("cell did not simulate after the cancelled attempt")
	}
	// And a cancelled context still reads an already-memoized result in
	// the common select path or returns promptly; either way it must not
	// re-simulate.
	if r.CachedRuns() != 1 {
		t.Fatalf("CachedRuns = %d, want 1", r.CachedRuns())
	}
}

func TestConcurrentRunOneSimulatesOnce(t *testing.T) {
	// Hammer one spec from many goroutines: the sync.Once entry must
	// collapse them into a single simulation (checked via CachedRuns and
	// pointer identity), and the race detector must stay quiet.
	r := NewRunner(0)
	spec := testSpec("Barnes", "Rebound")
	var wg sync.WaitGroup
	var firsts [8]Result
	var errs int32
	for i := 0; i < len(firsts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.RunOne(context.Background(), spec)
			if err != nil {
				atomic.AddInt32(&errs, 1)
				return
			}
			firsts[i] = res
		}(i)
	}
	wg.Wait()
	if errs != 0 {
		t.Fatalf("%d goroutines failed", errs)
	}
	for i := 1; i < len(firsts); i++ {
		if firsts[i].St != firsts[0].St {
			t.Fatal("concurrent RunOne returned distinct simulations")
		}
	}
	if r.CachedRuns() != 1 {
		t.Fatalf("CachedRuns = %d, want 1", r.CachedRuns())
	}
}

func TestRunOnePanicBecomesCachedError(t *testing.T) {
	// DepSets=1 passes Build but panics inside machine construction
	// (dep.NewTracker requires >= 2 sets). The runner must surface that
	// as an error — and later requests for the same spec must get the
	// same error immediately instead of blocking on a never-closed
	// entry. (Validate rejects this spec; the runner has to stay safe
	// for callers that skip validation.)
	r := NewRunner(1)
	spec := testSpec("FFT", "Rebound")
	spec.DepSets = 1
	if _, err := r.RunOne(context.Background(), spec); err == nil {
		t.Fatal("panicking cell returned no error")
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunOne(context.Background(), spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("second request got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second request for a panicked cell blocked")
	}
}

func TestRecoveryLatencyMemoized(t *testing.T) {
	r := NewRunner(2)
	spec := Spec{App: "Barnes", Procs: 4, Scheme: "Rebound", Scale: Quick}
	a := r.RecoveryLatency(spec)
	b := r.RecoveryLatency(spec)
	if a != b {
		t.Fatalf("memoized recovery latency changed: %v vs %v", a, b)
	}
	if r.CachedRecoveries() != 1 {
		t.Fatalf("CachedRecoveries = %d, want 1", r.CachedRecoveries())
	}
	r.PrefetchRecovery(context.Background(), spec, spec)
	if r.CachedRecoveries() != 1 {
		t.Fatalf("PrefetchRecovery re-measured a cached cell: %d entries", r.CachedRecoveries())
	}
}

func TestSetWorkersResetsDefault(t *testing.T) {
	old := Default()
	SetWorkers(1)
	defer func() {
		defaultMu.Lock()
		defaultRunner = old
		defaultMu.Unlock()
	}()
	if Default() == old {
		t.Fatal("SetWorkers kept the old runner")
	}
	if Default().Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", Default().Workers())
	}
	if Default().CachedRuns() != 0 {
		t.Fatal("SetWorkers kept memoized results")
	}
}
