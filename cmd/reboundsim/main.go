// Command reboundsim runs a single simulation of the Rebound manycore:
// one application, one processor count, one checkpointing scheme, and
// prints a summary of the run (overhead is reported when -baseline is
// set, which adds a second run without checkpointing).
//
// Example:
//
//	reboundsim -app Ocean -procs 32 -scheme Rebound -baseline
//	reboundsim -app Apache -procs 24 -scheme Global -instr 200000
//	reboundsim -app Barnes -procs 16 -scheme Rebound -fault
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	var (
		app      = flag.String("app", "Barnes", "application profile (see -list)")
		procs    = flag.Int("procs", 16, "number of processors")
		scheme   = flag.String("scheme", "Rebound", "checkpointing scheme: "+strings.Join(harness.SchemeNames(), "|"))
		instr    = flag.Uint64("instr", 150_000, "instructions per processor")
		interval = flag.Uint64("interval", 30_000, "checkpoint interval (instructions)")
		detectL  = flag.Uint64("L", 8_000, "fault detection latency bound L (cycles)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		baseline = flag.Bool("baseline", false, "also run without checkpointing and report overhead")
		doFault  = flag.Bool("fault", false, "inject a transient fault mid-run and verify recovery")
		shards   = flag.Int("shards", 0, "snapshot-plane range split of memory and directory copies (power of two; 0/1 = one range; results are identical)")
		list     = flag.Bool("list", false, "list application profiles and exit")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-14s (%s)\n", p.Name, p.Suite)
		}
		return
	}

	sc := harness.Scale{
		Name: "custom", ProcsLarge: *procs, ProcsSmall: *procs,
		InstrPerProc: *instr, Interval: *interval,
		DetectLatency: *detectL, Seed: *seed,
	}
	spec := harness.Spec{App: *app, Procs: *procs, Scheme: *scheme, Scale: sc, Shards: *shards}
	if err := spec.Validate(); err != nil {
		usage(err)
	}

	if *doFault {
		runWithFault(spec)
		return
	}

	res, err := harness.RunOne(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reboundsim:", err)
		os.Exit(1)
	}
	printSummary(res)

	if *baseline && *scheme != "none" {
		ovh, _, base := harness.Overhead(spec)
		fmt.Printf("\nbaseline (none):   %12d cycles\n", base.Cycles)
		fmt.Printf("checkpoint overhead: %9.2f %%\n", ovh*100)
	}
}

// usage reports a spec validation error with the valid vocabulary and
// exits non-zero (a bad -app or -scheme used to panic deep inside the
// harness; now it is a diagnosable CLI error).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "reboundsim:", err)
	fmt.Fprintf(os.Stderr, "\nvalid applications: %s\n", strings.Join(harness.AppNames(), " "))
	fmt.Fprintf(os.Stderr, "valid schemes:      %s\n", strings.Join(harness.SchemeNames(), " "))
	fmt.Fprintln(os.Stderr, "\nrun with -list for application details, -h for all flags")
	os.Exit(2)
}

func printSummary(res harness.Result) {
	st := res.St
	fmt.Printf("app=%s procs=%d scheme=%s\n", res.Spec.App, res.Spec.Procs, res.Spec.Scheme)
	fmt.Printf("cycles:              %12d\n", res.Cycles)
	fmt.Printf("instructions:        %12d\n", st.TotalInstructions())
	fmt.Printf("IPC (whole chip):    %12.2f\n",
		float64(st.TotalInstructions())/float64(res.Cycles))
	fmt.Printf("checkpoints:         %12d (avg ICHK %.1f%% of procs)\n",
		len(st.Checkpoints), st.AvgICHKFraction()*100)
	fmt.Printf("ckpt writebacks:     %12d (%d in background)\n",
		st.L2WritebacksCkpt, st.L2WritebacksBg)
	fmt.Printf("log entries:         %12d (%0.2f MB high water)\n",
		st.LogEntries, float64(st.LogHighWaterBytes)/(1<<20))
	fmt.Printf("coherence messages:  %12d (+%.1f%% for dependence tracking)\n",
		st.CohMessages, st.MessageIncreasePct())
	wb, imb, sync := st.StallTotals()
	fmt.Printf("stalls (cycles):     WB=%d imbalance=%d sync=%d depstall=%d\n",
		wb, imb, sync, st.DepStallCycles)
	fmt.Printf("estimated power:     %12.2f W (ED2 %.3e J*s^2)\n",
		res.Power.AvgPowerW, res.Power.ED2)
}

func runWithFault(spec harness.Spec) {
	m, err := harness.Build(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reboundsim:", err)
		os.Exit(1)
	}
	inj := fault.NewInjector(m, spec.Scale.Seed)
	budget := spec.Scale.InstrPerProc * uint64(spec.Procs)
	m.Run(budget / 2)
	inj.InjectAt(m.Now()+1, 0, m.Cfg.DetectLatency/2)
	m.Run(budget / 2)
	m.RunCycles(20_000_000)
	m.FinalizeStats()

	fmt.Printf("app=%s procs=%d scheme=%s (fault injection)\n",
		spec.App, spec.Procs, spec.Scheme)
	fmt.Printf("faults injected/detected: %d/%d\n", inj.Injected, inj.Detected)
	for i, rb := range m.St.Rollbacks {
		fmt.Printf("rollback %d: IREC=%d procs, %d log entries restored, %.3f ms\n",
			i, rb.Size, rb.Restored, float64(rb.End-rb.Start)/1e6)
	}
	if err := inj.Verify(); err != nil {
		fmt.Println("recovery verification: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("recovery verification: OK (no poison survived, IREC covered propagation)")
}
