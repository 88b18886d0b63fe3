// Command explore searches the scheme space from the command line: it
// crosses checkpointing schemes with checkpoint intervals and machine
// knobs, evaluates every surviving cell with a fault campaign plus a
// fault-free overhead run, and reports the Pareto frontier of the
// availability/overhead tradeoff.
//
//	go run ./cmd/explore -app FFT -procs 16 -scale quick \
//	    -schemes Rebound,Global_DWB -intervals 20000,40000 -trials 64
//
// The default strategy is successive halving: a cheap seeding rung
// (trials/4 per cell) prunes cells another cell beats decisively, and
// only the survivors get the full budget — the report's ledger shows
// the trials spent against what an exhaustive grid would have cost.
// -strategy grid evaluates every cell at full budget instead. Both
// produce byte-identical FrontierReports for identical specs.
//
// With -store, every cell evaluation and the report persist content-
// addressed: an interrupted exploration resumes from its evaluated
// cells, a finished one is served from disk, and explorations whose
// spaces intersect share the intersection.
//
//	go run ./cmd/explore -schemes Rebound -trials 100 -store ./explore-store
//
// With -server, nothing simulates in this process: the exploration is
// submitted to a running reboundd (single node or cluster coordinator)
// and polled to completion.
//
//	go run ./cmd/explore -server http://coord:8091 -schemes Rebound,Global -json
//
// -json emits the full FrontierReport (the byte-identical exploration
// artifact) on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		app       = flag.String("app", "FFT", "application profile")
		procs     = flag.Int("procs", 0, "processor count (0 = scale default for the app's suite)")
		scaleArg  = flag.String("scale", "quick", "experiment scale: quick|full")
		schemes   = flag.String("schemes", "Rebound,Global_DWB", "comma-separated schemes to cross")
		intervals = flag.String("intervals", "", "comma-separated checkpoint intervals in cycles (empty = the scale's)")
		wsigbits  = flag.String("wsigbits", "", "comma-separated write-signature widths (empty = machine default)")
		depsets   = flag.String("depsets", "", "comma-separated dependence-set counts (empty = machine default)")
		shards    = flag.String("shards", "", "comma-separated state-partition counts (empty = unsharded)")
		trials    = flag.Int("trials", 64, "full per-cell campaign budget in trials")
		faults    = flag.Int("faults", 2, "transient faults injected per trial")
		window    = flag.Uint64("window", 0, "fault-injection window in cycles (0 = 100xL)")
		detect    = flag.Uint64("detect", 0, "max detection latency in cycles (0 = the scale's L)")
		seed      = flag.Uint64("seed", 1, "exploration seed (folded into every cell's fault placement)")
		strategy  = flag.String("strategy", "", "search strategy: halving (default) | grid")
		storeDir  = flag.String("store", "", "persist cells/report here and resume interrupted explorations")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		jsonOut   = flag.Bool("json", false, "emit the full FrontierReport as JSON on stdout")
		server    = flag.String("server", "", "submit to a running reboundd at this URL instead of simulating locally")
		poll      = flag.Duration("poll", 2*time.Second, "progress poll interval with -server")
	)
	flag.Parse()

	sc, err := harness.ScaleByName(*scaleArg)
	if err != nil {
		fatalUsage(err)
	}
	ints, err := u64List(*intervals)
	if err != nil {
		fatalUsage(fmt.Errorf("-intervals: %w", err))
	}
	wsig, err := intList(*wsigbits)
	if err != nil {
		fatalUsage(fmt.Errorf("-wsigbits: %w", err))
	}
	deps, err := intList(*depsets)
	if err != nil {
		fatalUsage(fmt.Errorf("-depsets: %w", err))
	}
	shs, err := intList(*shards)
	if err != nil {
		fatalUsage(fmt.Errorf("-shards: %w", err))
	}
	spec := explore.Spec{
		App: *app, Procs: *procs, Scale: sc,
		Schemes: strList(*schemes), Intervals: ints,
		WSIGBits: wsig, DepSets: deps, Shards: shs,
		Trials: *trials, Faults: *faults, Window: *window,
		DetectLatency: *detect, Seed: *seed, Strategy: *strategy,
	}
	if err := spec.Validate(); err != nil {
		fatalUsage(err)
	}
	spec = spec.Normalize()

	var progressMu sync.Mutex
	lastDecile := -1
	progress := func(done, total int) {
		progressMu.Lock()
		defer progressMu.Unlock()
		pct := done * 100 / total
		if decile := pct / 10; decile > lastDecile {
			lastDecile = decile
			fmt.Fprintf(os.Stderr, "explore: %d/%d cell evaluations (%d%%)\n", done, total, pct)
		}
	}

	if *server != "" {
		begin := time.Now()
		rep, err := service.SubmitAndPoll[explore.FrontierReport](*server, "/v1/explore", service.ExploreRequest{
			App: *app, Procs: *procs, Scale: sc.Name,
			Schemes: spec.Schemes, Intervals: spec.Intervals,
			WSIGBits: wsig, DepSets: deps, Shards: shs,
			Trials: *trials, Faults: *faults, Window: *window,
			DetectLatency: *detect, Seed: *seed, Strategy: *strategy,
		}, *poll, retry.Policy{Attempts: 10, Jitter: 0.5, Seed: *seed}, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(1)
		}
		finish(rep, time.Since(begin), *jsonOut)
		return
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(1)
		}
	}
	ex := explore.NewLocalExplorer(harness.NewRunner(*workers), st)
	ex.OnProgress = progress

	begin := time.Now()
	rep, err := ex.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		os.Exit(1)
	}
	finish(rep, time.Since(begin), *jsonOut)
}

// finish renders the report — identical for local and -server runs.
func finish(rep *explore.FrontierReport, elapsed time.Duration, jsonOut bool) {
	if jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	printSummary(rep, elapsed)
}

func printSummary(rep *explore.FrontierReport, elapsed time.Duration) {
	s := rep.Spec
	onFrontier := make(map[int]bool, len(rep.Frontier))
	for _, idx := range rep.Frontier {
		onFrontier[idx] = true
	}
	fmt.Printf("Exploration %s\n", rep.Key)
	fmt.Printf("  space:      %d schemes x %d intervals -> %d cells (%s x%d, %s scale, strategy %s)\n",
		len(s.Schemes), len(s.Intervals), len(s.Cells()), s.App, s.Procs, s.Scale.Name, s.Strategy)
	fmt.Printf("  budget:     %d trials spent of %d an exhaustive grid would cost (%d%%)\n",
		rep.TrialsSpent, rep.GridTrials, rep.TrialsSpent*100/rep.GridTrials)
	for _, r := range rep.Rungs {
		fmt.Printf("    rung:     %d cells x %d trials = %d\n", r.Cells, r.Trials, r.TrialsSpent)
	}
	fmt.Printf("  frontier:   %d dominant cells, %d dominated\n", len(rep.Frontier), rep.Dominated)
	fmt.Printf("  %-44s %12s %10s %10s\n", "cell", "availability", "overhead", "mttr(ms)")
	for i, cr := range rep.Cells {
		marker := " "
		if onFrontier[i] {
			marker = "*"
		}
		fmt.Printf("  %s %-42s %12.6f %9.2f%% %10.4f\n",
			marker, cr.Cell.Label(), cr.Availability, cr.Overhead*100, cr.MTTRms)
	}
	fmt.Printf("  wall clock: %s\n", elapsed.Round(time.Millisecond))
}

// strList splits a comma-separated flag, dropping empty elements.
func strList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func u64List(s string) ([]uint64, error) {
	var out []uint64
	for _, p := range strList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func intList(s string) ([]int, error) {
	var out []int
	for _, p := range strList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "explore: %v\n", err)
	fmt.Fprintf(os.Stderr, "valid apps:    %s\n", strings.Join(harness.AppNames(), " "))
	fmt.Fprintf(os.Stderr, "valid schemes: %s\n", strings.Join(harness.SchemeNames(), " "))
	os.Exit(2)
}
