// Command campaign runs a Monte Carlo fault-injection campaign from the
// command line: many deterministic fault-injected trials of one
// experiment cell, aggregated into MTTR / availability / rolled-back
// work statistics with confidence intervals, with the poison verifier's
// verdict checked on every trial.
//
//	go run ./cmd/campaign -app FFT -procs 16 -scheme Rebound \
//	    -scale quick -trials 200 -faults 2
//
// With -store, per-trial records and the report persist content-
// addressed under the campaign key: an interrupted campaign resumes
// from its completed trials, and a finished one is served from disk.
//
//	go run ./cmd/campaign -app Ocean -trials 1000 -store ./campaign-store
//
// With -server, nothing simulates in this process: the campaign is
// submitted to a running reboundd (single node or cluster coordinator —
// same API either way) and polled to completion, with transport
// hiccups retried under capped exponential backoff. Progress, output
// and exit codes are identical to a local run; on a coordinator the
// trials shard across the worker fleet and the fetched Report is
// byte-identical to one computed locally.
//
//	go run ./cmd/campaign -server http://coord:8091 -trials 1000 -json
//
// The exit status is 0 only when every trial passed verification
// (the paper's recovery guarantee, §3.2/Appendix A); -json emits the
// full Report (the byte-identical campaign artifact) on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		app      = flag.String("app", "FFT", "application profile")
		procs    = flag.Int("procs", 0, "processor count (0 = scale default for the app's suite)")
		scheme   = flag.String("scheme", "Rebound", "checkpointing scheme")
		scaleArg = flag.String("scale", "quick", "experiment scale: quick|full")
		trials   = flag.Int("trials", 200, "number of Monte Carlo trials")
		faults   = flag.Int("faults", 2, "transient faults injected per trial")
		window   = flag.Uint64("window", 0, "fault-injection window in cycles (0 = 100xL)")
		detect   = flag.Uint64("detect", 0, "max detection latency in cycles (0 = the scale's L)")
		seed     = flag.Uint64("seed", 1, "campaign seed (folded into every trial's fault seed)")
		storeDir = flag.String("store", "", "persist trials/report here and resume interrupted campaigns")
		workers  = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "machine state-partition count (power of two; 0/1 = unsharded; results are identical)")
		serial   = flag.Bool("serial", false, "run trials serially (byte-identical to parallel)")
		jsonOut  = flag.Bool("json", false, "emit the full campaign Report as JSON on stdout")
		server   = flag.String("server", "", "submit to a running reboundd at this URL instead of simulating locally")
		poll     = flag.Duration("poll", 2*time.Second, "progress poll interval with -server")
	)
	flag.Parse()

	sc, err := harness.ScaleByName(*scaleArg)
	if err != nil {
		fatalUsage(err)
	}
	np := *procs
	if np == 0 {
		np = harness.DefaultProcs(sc, *app)
	}
	spec := campaign.Spec{
		Base:          harness.Spec{App: *app, Procs: np, Scheme: *scheme, Scale: sc, Shards: *shards},
		Trials:        *trials,
		Faults:        *faults,
		Window:        *window,
		DetectLatency: *detect,
		Seed:          *seed,
	}
	if err := spec.Validate(); err != nil {
		fatalUsage(err)
	}

	// OnProgress is called from worker goroutines (or the poll loop);
	// guard the decile tracker.
	var progressMu sync.Mutex
	lastDecile := -1
	progress := func(done, total int) {
		progressMu.Lock()
		defer progressMu.Unlock()
		pct := done * 100 / total
		if decile := pct / 10; decile > lastDecile {
			lastDecile = decile
			fmt.Fprintf(os.Stderr, "campaign: %d/%d trials (%d%%)\n", done, total, pct)
		}
	}

	if *server != "" {
		begin := time.Now()
		rep, err := service.SubmitAndPoll[campaign.Report](*server, "/v1/campaigns", service.CampaignRequest{
			RunRequest: service.RunRequest{App: *app, Procs: np, Scheme: *scheme, Scale: sc.Name, Shards: *shards},
			Trials:     *trials, Faults: *faults, Window: *window,
			DetectLatency: *detect, Seed: *seed,
		}, *poll, retry.Policy{Attempts: 10, Jitter: 0.5, Seed: *seed}, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
		finish(rep, time.Since(begin), *jsonOut)
		return
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
	}
	width := *workers
	if *serial {
		width = 1
	}
	eng := campaign.New(harness.NewRunner(width), st)
	eng.OnProgress = progress

	begin := time.Now()
	var rep *campaign.Report
	if *serial {
		rep, err = eng.RunSerial(context.Background(), spec)
	} else {
		rep, err = eng.Run(context.Background(), spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
	finish(rep, time.Since(begin), *jsonOut)
}

// finish renders the report and exits non-zero when verification
// failed — identical for local and -server runs.
func finish(rep *campaign.Report, elapsed time.Duration, jsonOut bool) {
	if jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		printSummary(rep, elapsed)
	}
	if rep.VerifiedOK != rep.Trials {
		fmt.Fprintf(os.Stderr, "campaign: VERIFICATION FAILED on %d/%d trials\n",
			rep.Trials-rep.VerifiedOK, rep.Trials)
		os.Exit(1)
	}
}

func printSummary(rep *campaign.Report, elapsed time.Duration) {
	s := rep.Spec
	fmt.Printf("Campaign %s\n", rep.Key)
	fmt.Printf("  cell:          %s x%d under %s (%s scale)\n",
		s.Base.App, s.Base.Procs, s.Base.Scheme, s.Base.Scale.Name)
	fmt.Printf("  fault grid:    %d trials x %d faults, window=%d, detect<=%d, seed=%d\n",
		s.Trials, s.Faults, s.Window, s.DetectLatency, s.Seed)
	fmt.Printf("  verified:      %d/%d trials passed the poison verifier\n",
		rep.VerifiedOK, rep.Trials)
	fmt.Printf("  faults:        %d injected, %d detected, %d rollbacks\n",
		rep.FaultsInjected, rep.FaultsDetected, rep.Rollbacks)
	fmt.Printf("  recovery:      mean %.0f cycles (+-%.0f @95%%), p95 %.0f, max %.0f\n",
		rep.Recovery.Mean, rep.Recovery.CI95, rep.Recovery.P95, rep.Recovery.Max)
	fmt.Printf("  MTTR:          %.4f ms at 1 GHz\n", rep.MTTRms)
	fmt.Printf("  IREC size:     mean %.2f procs (+-%.2f @95%%), p95 %.0f\n",
		rep.IREC.Mean, rep.IREC.CI95, rep.IREC.P95)
	fmt.Printf("  wasted work:   mean %.0f proc-cycles/trial (+-%.0f @95%%), %.4f%% of all work\n",
		rep.Wasted.Mean, rep.Wasted.CI95, rep.WastedWorkFrac*100)
	fmt.Printf("  availability:  %.6f\n", rep.Availability)
	fmt.Printf("  wall clock:    %s\n", elapsed.Round(time.Millisecond))
}

func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
	fmt.Fprintf(os.Stderr, "valid apps:    %s\n", strings.Join(harness.AppNames(), " "))
	fmt.Fprintf(os.Stderr, "valid schemes: %s\n", strings.Join(harness.SchemeNames(), " "))
	os.Exit(2)
}
