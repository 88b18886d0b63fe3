// Command benchhot measures the simulator's hot-path benchmarks
// (internal/benchhot) and maintains BENCH_hotpath.json, the repo's
// machine-readable performance trajectory.
//
// Record a measurement under a label (merging into an existing file):
//
//	go run ./cmd/benchhot -label post-refactor -out BENCH_hotpath.json
//
// Gate a change against the committed trajectory (CI): re-measure and
// fail when any benchmark's ops/sec drops more than -max-regress below
// the BEST prior entry for its (name, gomaxprocs), across all labels —
// the trajectory is a ratchet, not a pointer to the newest label:
//
//	go run ./cmd/benchhot -check -baseline BENCH_hotpath.json \
//	    -max-regress 0.20 -out bench_current.json
//
// -check also enforces the parallel-scaling gate: on a runner with at
// least 4 cores, CampaignTrialParallel must reach 2x CampaignTrial's
// throughput in the same run without exceeding its allocs/op (the
// fork-engine contract; see internal/campaign.TrialRunner). Narrower
// runners warn and skip — they cannot express the requirement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/benchhot"
)

// Entry is one benchmark measurement in BENCH_hotpath.json.
type Entry struct {
	// Name identifies the benchmark; Label identifies the code state
	// measured (e.g. "baseline-pre-refactor", "post-refactor").
	Name        string  `json:"name"`
	Label       string  `json:"label"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Date        string  `json:"date"`
}

var benches = []struct {
	name string
	fn   func(*testing.B)
	// parallel marks benchmarks that run at GOMAXPROCS=NumCPU (the
	// body sets it itself); their entries record that width so the
	// gate compares like with like.
	parallel bool
}{
	{"SingleCell", benchhot.SingleCell, false},
	{"Fig62Sweep", benchhot.Fig62Sweep, false},
	{"ServicePath", benchhot.ServicePath, false},
	{"CampaignTrial", benchhot.CampaignTrial, false},
	{"CampaignTrialParallel", benchhot.CampaignTrialParallel, true},
	{"ShardedSingleCell", benchhot.ShardedSingleCell, false},
	{"ShardedSingleCellParallel", benchhot.ShardedSingleCellParallel, true},
	{"Run256", benchhot.Run256, false},
	{"Fig62SweepSharded", benchhot.Fig62SweepSharded, false},
}

// parseBenchFilter splits -bench into comma-separated substring terms
// and validates each against the registry: a term matching no
// registered benchmark is an error, not a silent no-op — a typo in a
// CI invocation must fail the job rather than quietly gate nothing.
func parseBenchFilter(arg string) ([]string, error) {
	if arg == "" {
		return nil, nil
	}
	var terms []string
	for _, t := range strings.Split(arg, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		matched := false
		for _, bm := range benches {
			if strings.Contains(bm.name, t) {
				matched = true
				break
			}
		}
		if !matched {
			var names []string
			for _, bm := range benches {
				names = append(names, bm.name)
			}
			return nil, fmt.Errorf("-bench term %q matches no registered benchmark (have: %s)",
				t, strings.Join(names, " "))
		}
		terms = append(terms, t)
	}
	return terms, nil
}

func selected(name string, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	for _, t := range terms {
		if strings.Contains(name, t) {
			return true
		}
	}
	return false
}

func measure(label string, terms []string) []Entry {
	now := time.Now().UTC().Format("2006-01-02")
	var out []Entry
	for _, bm := range benches {
		if !selected(bm.name, terms) {
			continue
		}
		// A parallel benchmark on a narrow machine measures contention,
		// not scaling: its body raises GOMAXPROCS to NumCPU, so below
		// the scaling gate's width the row is meaningless — and once
		// merged into the trajectory it would ratchet future runs
		// against garbage. Refuse to record it rather than caveat it.
		if bm.parallel && runtime.NumCPU() < scalingMinWidth {
			fmt.Fprintf(os.Stderr,
				"benchhot: skipping %s: %d cores < %d (parallel rows are only meaningful at the scaling gate's width)\n",
				bm.name, runtime.NumCPU(), scalingMinWidth)
			continue
		}
		fmt.Fprintf(os.Stderr, "benchhot: running %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		ns := float64(r.NsPerOp())
		if ns <= 0 {
			ns = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		gmp := runtime.GOMAXPROCS(0)
		if bm.parallel {
			gmp = runtime.NumCPU()
		}
		e := Entry{
			Name: bm.name, Label: label,
			OpsPerSec:   1e9 / ns,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  gmp,
			Date:        now,
		}
		fmt.Fprintf(os.Stderr, "benchhot: %-12s %12.0f ops/sec  %10.1f ns/op  %d allocs/op\n",
			e.Name, e.OpsPerSec, e.NsPerOp, e.AllocsPerOp)
		out = append(out, e)
	}
	return out
}

func load(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Entry
	if len(data) == 0 {
		return nil, nil
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// merge replaces same (name, label) entries and keeps everything else,
// sorted by label then name for stable diffs.
func merge(old, fresh []Entry) []Entry {
	replaced := make(map[string]bool, len(fresh))
	for _, e := range fresh {
		replaced[e.Name+"|"+e.Label] = true
	}
	var out []Entry
	for _, e := range old {
		if !replaced[e.Name+"|"+e.Label] {
			out = append(out, e)
		}
	}
	out = append(out, fresh...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func save(path string, entries []Entry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bestPrior reduces the baseline trajectory to, per (name, gomaxprocs),
// the strictest bar it has ever set: the highest recorded ops/sec and
// the lowest recorded allocs/op (possibly from different entries). The
// trajectory is a ratchet — once a PR lands a speedup, later PRs are
// gated against it, not against whichever label happens to be newest.
type bestPrior struct {
	ops    float64
	allocs int64
}

func bestPriors(baseline []Entry, key func(Entry) string) map[string]bestPrior {
	best := make(map[string]bestPrior)
	for _, e := range baseline {
		k := key(e)
		b, ok := best[k]
		if !ok {
			best[k] = bestPrior{ops: e.OpsPerSec, allocs: e.AllocsPerOp}
			continue
		}
		if e.OpsPerSec > b.ops {
			b.ops = e.OpsPerSec
		}
		if e.AllocsPerOp < b.allocs {
			b.allocs = e.AllocsPerOp
		}
		best[k] = b
	}
	return best
}

// check compares fresh measurements against the best prior entry per
// (name, gomaxprocs) in the committed trajectory. Two gates: ops/sec
// must not drop more than maxRegress below the best recorded
// (hardware-sensitive — the baseline was recorded on one machine, so
// this catches gross slowdowns), and allocs/op must not grow more than
// maxAllocGrowth over the best recorded (machine-independent — in particular,
// a SingleCell history of 0 allocs/op means any new per-op allocation
// fails). A benchmark with no prior entry at the same gomaxprocs skips
// the gate: ops/sec across different widths are not comparable, and a
// cross-width ratchet would permanently fail any runner whose core
// count differs from the recording machine's.
//
// The ratchet's escape hatches are the two tolerance flags: widen
// -max-regress (ops/sec) or -max-alloc-growth (allocs/op) in CI for a
// deliberate trade-off, rather than rewriting the committed trajectory.
func check(fresh, baseline []Entry, maxRegress, maxAllocGrowth float64) error {
	best := bestPriors(baseline, func(e Entry) string {
		return fmt.Sprintf("%s|%d", e.Name, e.GOMAXPROCS)
	})
	if len(best) == 0 {
		return fmt.Errorf("baseline has no entries")
	}
	var failed bool
	for _, e := range fresh {
		b, ok := best[fmt.Sprintf("%s|%d", e.Name, e.GOMAXPROCS)]
		width := fmt.Sprintf("gomaxprocs=%d", e.GOMAXPROCS)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchhot: %s: no prior entry at %s, skipping gate\n", e.Name, width)
			continue
		}
		floor := b.ops * (1 - maxRegress)
		ratio := e.OpsPerSec / b.ops
		status := "ok"
		if e.OpsPerSec < floor {
			status = "REGRESSION"
			failed = true
		}
		allocLimit := b.allocs + int64(float64(b.allocs)*maxAllocGrowth)
		if e.AllocsPerOp > allocLimit {
			status = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr,
			"benchhot: gate %-22s %12.0f vs best prior %12.0f ops/sec (%.2fx, floor %.0f, %s), %d vs %d allocs/op (limit %d): %s\n",
			e.Name, e.OpsPerSec, b.ops, ratio, floor, width, e.AllocsPerOp, b.allocs, allocLimit, status)
	}
	if failed {
		return fmt.Errorf("regression beyond gate (ops/sec -%.0f%% or allocs/op +%.0f%% vs best prior)",
			maxRegress*100, maxAllocGrowth*100)
	}
	return nil
}

// The scaling gates: each pair compares a parallel benchmark against
// its serial twin from the SAME measurement run (fresh vs fresh, so
// machine-independent, unlike the ops/sec ratchet). Below
// scalingMinWidth cores the gates warn and skip — a 1- or 2-core
// runner cannot express a 2x requirement (and measure refuses to
// record parallel rows there at all).
const scalingMinWidth = 4

var scalingPairs = []struct {
	serial, parallel string
	floor            float64
	// allocParity additionally requires the parallel row to allocate
	// no more per op than the serial one. True for the campaign pair
	// (forking must not add per-trial allocations); false for the
	// sharded snapshot pair, whose parallel path pays a few worker-pool
	// allocations per op that the serial single-worker path skips.
	allocParity bool
}{
	// The fork engine: trial throughput must scale with cores instead
	// of staying flat (N warmups used to eat the parallelism).
	{"CampaignTrial", "CampaignTrialParallel", 2.0, true},
	// The snapshot plane: snapshot/restore of a 256-proc machine must
	// scale across per-proc/per-range tasks (machine.parallelDo).
	{"ShardedSingleCell", "ShardedSingleCellParallel", 1.8, false},
}

// checkScaling applies every scalingPairs gate present in fresh. On a
// runner wide enough to express the gate, a pair with one side missing
// from an unfiltered run is an error: a silently half-measured pair
// would report "gate passed" while gating nothing.
func checkScaling(fresh []Entry, filtered bool) error {
	byName := make(map[string]*Entry, len(fresh))
	for i := range fresh {
		byName[fresh[i].Name] = &fresh[i]
	}
	for _, pair := range scalingPairs {
		serial, parallel := byName[pair.serial], byName[pair.parallel]
		if serial == nil && parallel == nil {
			continue // pair not in this run
		}
		if serial == nil || parallel == nil {
			if filtered || runtime.NumCPU() < scalingMinWidth {
				continue // -bench selected one side, or measure refused the parallel row
			}
			return fmt.Errorf("scaling pair %s/%s half-measured: one side missing from an unfiltered run",
				pair.serial, pair.parallel)
		}
		if parallel.GOMAXPROCS < scalingMinWidth {
			fmt.Fprintf(os.Stderr,
				"benchhot: scaling gate %s skipped: parallel width %d < %d cores\n",
				pair.parallel, parallel.GOMAXPROCS, scalingMinWidth)
			continue
		}
		speedup := parallel.OpsPerSec / serial.OpsPerSec
		fmt.Fprintf(os.Stderr,
			"benchhot: gate scaling %s: parallel %.0f vs serial %.0f ops/sec = %.2fx at gomaxprocs=%d (floor %.1fx), %d vs %d allocs/op\n",
			pair.parallel, parallel.OpsPerSec, serial.OpsPerSec, speedup, parallel.GOMAXPROCS,
			pair.floor, parallel.AllocsPerOp, serial.AllocsPerOp)
		if speedup < pair.floor {
			return fmt.Errorf("%s throughput %.2fx %s at %d cores, want >=%.1fx (flat scaling regression)",
				pair.parallel, speedup, pair.serial, parallel.GOMAXPROCS, pair.floor)
		}
		if pair.allocParity && parallel.AllocsPerOp > serial.AllocsPerOp {
			return fmt.Errorf("%s allocates more than %s (%d vs %d allocs/op): parallelism added per-op allocations",
				pair.parallel, pair.serial, parallel.AllocsPerOp, serial.AllocsPerOp)
		}
	}
	return nil
}

func main() {
	var (
		label      = flag.String("label", "current", "label to record measurements under")
		out        = flag.String("out", "", "JSON file to merge measurements into")
		doCheck    = flag.Bool("check", false, "gate against a baseline file")
		benchArg   = flag.String("bench", "", "measure only benchmarks whose name contains one of these comma-separated substrings (each term must match)")
		baseline   = flag.String("baseline", "BENCH_hotpath.json", "baseline file for -check")
		maxRegress = flag.Float64("max-regress", 0.20, "maximum allowed ops/sec drop for -check")
		maxAllocs  = flag.Float64("max-alloc-growth", 0.25, "maximum allowed allocs/op growth for -check")
	)
	flag.Parse()

	terms, err := parseBenchFilter(*benchArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchhot: %v\n", err)
		os.Exit(1)
	}
	fresh := measure(*label, terms)
	if len(fresh) == 0 {
		fmt.Fprintf(os.Stderr, "benchhot: nothing to measure (all selected benchmarks refused on this machine)\n")
		os.Exit(1)
	}

	// The trajectory is written (emit, below) only after the gate ran:
	// the best-of-two retry may replace noisy first samples, and the
	// recorded numbers must be the ones that were actually judged.
	emit := func() {
		if *out != "" {
			old, err := load(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchhot: %v\n", err)
				os.Exit(1)
			}
			if err := save(*out, merge(old, fresh)); err != nil {
				fmt.Fprintf(os.Stderr, "benchhot: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchhot: wrote %s\n", *out)
		} else {
			data, _ := json.MarshalIndent(fresh, "", "  ")
			fmt.Println(string(data))
		}
	}

	if *doCheck {
		base, err := load(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchhot: %v\n", err)
			os.Exit(1)
		}
		gate := func() error {
			if err := check(fresh, base, *maxRegress, *maxAllocs); err != nil {
				return err
			}
			return checkScaling(fresh, len(terms) > 0)
		}
		err = gate()
		if err != nil {
			// Best-of-two: a single testing.Benchmark sample on a noisy
			// shared runner can dip below the floor without any code
			// change. Re-measure once and keep, per benchmark, the
			// faster sample whole — except allocs/op, which is gated on
			// the WORSE of the two samples: the retry forgives only
			// throughput noise, never an allocation regression.
			fmt.Fprintf(os.Stderr, "benchhot: first sample failed (%v); re-measuring once\n", err)
			second := measure(*label, terms)
			for i := range fresh {
				worstAllocs := fresh[i].AllocsPerOp
				if second[i].AllocsPerOp > worstAllocs {
					worstAllocs = second[i].AllocsPerOp
				}
				if second[i].OpsPerSec > fresh[i].OpsPerSec {
					fresh[i] = second[i]
				}
				fresh[i].AllocsPerOp = worstAllocs
			}
			err = gate()
		}
		if err != nil {
			emit() // record the failing numbers too: red runs are data
			fmt.Fprintf(os.Stderr, "benchhot: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchhot: gate passed")
	}
	emit()
}
