// Package harness drives the experiments of the paper's evaluation
// chapter: one driver per figure/table, shared by cmd/figures, the root
// benchmarks and the integration tests. Every configuration runs
// against a "none" (no checkpointing) baseline to compute overheads,
// exactly as the paper reports them.
//
// Execution goes through the Runner (runner.go): figure drivers build
// their Spec lists, prefetch them across a GOMAXPROCS worker pool with
// per-Spec memoization, and assemble tables from the memoized Results.
// Parallel and serial execution are bit-identical because each cell's
// machine seed is derived purely from its Spec (DeriveSeed).
package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sizes the experiments. The paper runs SPLASH-2 on up to 64
// processors and PARSEC/Apache on 24, with 4M-instruction checkpoint
// intervals; the scaled defaults keep the same dirty-lines-per-interval
// regime at simulation-friendly sizes (DESIGN.md).
type Scale struct {
	Name string
	// ProcsLarge is the SPLASH-2 processor count (paper: 64);
	// ProcsSmall is the PARSEC/Apache count (paper: 24).
	ProcsLarge, ProcsSmall int
	// InstrPerProc is the per-processor instruction budget of one run.
	InstrPerProc uint64
	// Interval is the checkpoint interval in instructions.
	Interval uint64
	// DetectLatency is L in cycles.
	DetectLatency sim.Cycle
	Seed          uint64
}

// Quick is the test/benchmark scale; Full approximates the paper's
// processor counts.
var (
	Quick = Scale{Name: "quick", ProcsLarge: 16, ProcsSmall: 8,
		InstrPerProc: 120_000, Interval: 25_000, DetectLatency: 6_000, Seed: 1}
	Full = Scale{Name: "full", ProcsLarge: 64, ProcsSmall: 24,
		InstrPerProc: 150_000, Interval: 30_000, DetectLatency: 8_000, Seed: 1}
)

// ScaleByName resolves "quick" or "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("harness: unknown scale %q (quick|full)", name)
}

// Spec describes one run. It is a complete, self-contained description
// of the experiment cell: the runner treats equal Specs as the same
// simulation (see Key) and memoizes accordingly.
type Spec struct {
	App    string
	Procs  int
	Scheme string
	Scale  Scale
	// IOForce > 0 makes core 1 perform output I/O every IOForce
	// instructions (the Fig 6.7 experiment).
	IOForce uint64
	// WSIGBits overrides the write-signature size when > 0 and DepSets
	// the number of Dep register sets (the ablation sweeps); LogAllWB
	// disables ReVive's first-writeback-per-interval log optimisation.
	// Zero values keep machine.DefaultConfig.
	WSIGBits int
	DepSets  int
	LogAllWB bool
	// Shards is the number of line-ID ranges the machine's snapshot
	// plane splits its memory and directory copies into (machine.Config
	// Shards): 0 and 1 mean one range, larger counts must be powers of
	// two up to MaxShards. The axis changes snapshot/restore
	// parallelism, never results — DeriveSeed ignores it so every shard
	// count replays identical streams and reports byte-identical stats.
	Shards int
}

// Result is the outcome of one run.
type Result struct {
	Spec   Spec
	St     *stats.Stats
	Cycles uint64
	Power  power.Report
}

// schemeNames lists every scheme SchemeFor accepts, in the order the
// evaluation introduces them: paper schemes first (Fig 4.3a's
// configuration list), post-paper extensions appended at the end — the
// order is stable API (figure tables and sweep layouts index into it),
// so new schemes are only ever appended, never inserted.
var schemeNames = []string{
	"none", "Global", "Global_DWB",
	"Rebound", "Rebound_NoDWB", "Rebound_Barr", "Rebound_NoDWB_Barr",
	"Rebound_2L",
}

// SchemeNames returns the valid -scheme / API scheme identifiers.
func SchemeNames() []string {
	return append([]string(nil), schemeNames...)
}

// AppNames returns the valid application-profile names: exactly the
// names workload.ByName resolves (one shared registry, so the CLI and
// service listings cannot advertise a different vocabulary than what
// runs).
func AppNames() []string { return workload.Names() }

// DefaultProcs resolves the default processor count for app at sc the
// way the paper sizes its machines: SPLASH-2 runs on the large machine,
// PARSEC/Apache on the small one. It is the shared request-defaulting
// rule of the service API and the campaign CLI, so the same unspecified
// request can never resolve to different cells on different surfaces.
func DefaultProcs(sc Scale, app string) int {
	if p := workload.ByName(app); p != nil && p.Suite == "splash2" {
		return sc.ProcsLarge
	}
	return sc.ProcsSmall
}

// MaxProcs bounds Spec.Procs: large enough for any paper configuration
// (the full scale tops out at 64), small enough that a single request
// cannot ask a service for an absurd machine. MaxWSIGBits and
// MaxDepSets similarly bound the hardware knobs (the ablation sweeps
// top out at 2048 bits and 6 sets); MinDepSets is the tracker's hard
// floor (dep.NewTracker panics below 2). MaxIOForce keeps the forced
// I/O period within a range the profile arithmetic handles. MaxShards
// bounds the snapshot plane's range split, far above the core count
// any host gives it.
const (
	MaxProcs    = 1024
	MaxWSIGBits = 1 << 16
	MinDepSets  = 2
	MaxDepSets  = 64
	MaxIOForce  = 1 << 32
	MaxShards   = 64
)

// Validate reports whether the spec describes a runnable experiment
// cell: known application and scheme, a sane processor count, and a
// Scale with non-zero instruction budget and checkpoint interval. It is
// the shared request validation of cmd/reboundsim, cmd/figures and the
// reboundd service; Build repeats the app/scheme resolution but cannot
// list valid values in its errors the way Validate does.
func (s Spec) Validate() error {
	if workload.ByName(s.App) == nil {
		return fmt.Errorf("harness: unknown application %q (valid: %s)",
			s.App, strings.Join(AppNames(), " "))
	}
	if _, err := SchemeFor(s.Scheme); err != nil {
		return fmt.Errorf("harness: unknown scheme %q (valid: %s)",
			s.Scheme, strings.Join(SchemeNames(), " "))
	}
	if s.Procs < 1 || s.Procs > MaxProcs {
		return fmt.Errorf("harness: procs %d out of range [1, %d]", s.Procs, MaxProcs)
	}
	if s.Scale.InstrPerProc == 0 {
		return fmt.Errorf("harness: scale %q has a zero instruction budget", s.Scale.Name)
	}
	if s.Scale.Interval == 0 {
		return fmt.Errorf("harness: scale %q has a zero checkpoint interval", s.Scale.Name)
	}
	if s.Scale.DetectLatency == 0 {
		// Fault injection draws each detection latency from [1, L].
		return fmt.Errorf("harness: scale %q has a zero detection latency", s.Scale.Name)
	}
	if s.WSIGBits < 0 || s.DepSets < 0 {
		return fmt.Errorf("harness: negative hardware knob (wsigbits=%d depsets=%d)",
			s.WSIGBits, s.DepSets)
	}
	if s.WSIGBits > MaxWSIGBits {
		return fmt.Errorf("harness: wsigbits %d out of range [1, %d]", s.WSIGBits, MaxWSIGBits)
	}
	if s.DepSets != 0 && (s.DepSets < MinDepSets || s.DepSets > MaxDepSets) {
		return fmt.Errorf("harness: depsets %d out of range [%d, %d]",
			s.DepSets, MinDepSets, MaxDepSets)
	}
	if s.IOForce > MaxIOForce {
		return fmt.Errorf("harness: ioforce %d out of range [0, %d]", s.IOForce, uint64(MaxIOForce))
	}
	if s.Shards < 0 || s.Shards > MaxShards || (s.Shards > 1 && s.Shards&(s.Shards-1) != 0) {
		return fmt.Errorf("harness: shards %d must be a power of two in [0, %d]", s.Shards, MaxShards)
	}
	return nil
}

// SchemeFor builds the named scheme. Every call returns a FRESH
// instance: schemes hold per-machine state (Rebound's per-processor
// checkpoint protocol, Global's epoch bookkeeping), so two machines
// must never share one. machine.Fork relies on this — each forked
// worker machine is handed its own SchemeFor product, then Restore
// loads the shared snapshot's scheme state into it.
func SchemeFor(name string) (machine.Scheme, error) {
	switch name {
	case "none":
		return machine.NullScheme{}, nil
	case "Global":
		return core.NewGlobal(false), nil
	case "Global_DWB":
		return core.NewGlobal(true), nil
	case "Rebound":
		return core.NewRebound(core.Options{DelayedWB: true}), nil
	case "Rebound_NoDWB":
		return core.NewRebound(core.Options{}), nil
	case "Rebound_Barr":
		return core.NewRebound(core.Options{DelayedWB: true, BarrierOpt: true}), nil
	case "Rebound_NoDWB_Barr":
		return core.NewRebound(core.Options{BarrierOpt: true}), nil
	case "Rebound_2L":
		// Two-level hierarchical Rebound (the paper's scalability
		// sketch): group-local coordinated checkpoints with delayed
		// writebacks, escalating to a periodic chip-wide outer level.
		return core.NewRebound(core.Options{DelayedWB: true, TwoLevel: true}), nil
	}
	return nil, fmt.Errorf("harness: unknown scheme %q", name)
}

// Build constructs the machine for a spec without running it.
func Build(spec Spec) (*machine.Machine, error) {
	prof := workload.ByName(spec.App)
	if prof == nil {
		return nil, fmt.Errorf("harness: unknown application %q", spec.App)
	}
	if spec.IOForce > 0 {
		p := *prof
		p.IOPeriod = int(spec.IOForce)
		p.IOCore = 1 // core 0 only
		prof = &p
	}
	sch, err := SchemeFor(spec.Scheme)
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig(spec.Procs)
	cfg.CkptInterval = spec.Scale.Interval
	cfg.DetectLatency = spec.Scale.DetectLatency
	cfg.Seed = DeriveSeed(spec)
	if spec.WSIGBits > 0 {
		cfg.WSIGBits = spec.WSIGBits
	}
	if spec.DepSets > 0 {
		cfg.DepSets = spec.DepSets
	}
	cfg.Shards = spec.Shards
	m := machine.New(cfg, prof, sch)
	if spec.LogAllWB {
		m.Ctrl.Log().AlwaysLog = true
	}
	return m, nil
}

// runSpec builds the machine for spec and runs it to its instruction
// budget on the calling goroutine. It is the uncached primitive
// underneath the Runner: a pure function of spec, with no shared state
// between invocations.
func runSpec(spec Spec) (Result, error) {
	m, err := Build(spec)
	if err != nil {
		return Result{}, err
	}
	end := m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs))
	m.FinalizeStats()
	hasDep := spec.Scheme != "none" && spec.Scheme != "Global" && spec.Scheme != "Global_DWB"
	return Result{
		Spec:   spec,
		St:     m.St,
		Cycles: uint64(end),
		Power:  power.Default45nm().Compute(m.St, hasDep),
	}, nil
}

// ReuseKey is the machine-shape identity of a spec (every field but
// scheme and the log-ablation flag).
func ReuseKey(s Spec) string {
	b := s
	b.Scheme, b.LogAllWB = "", false
	return b.Key()
}

// MustRun runs a known-good spec (figure drivers) through the
// process-wide memoizing runner.
func MustRun(spec Spec) Result {
	res, err := RunOne(context.Background(), spec)
	if err != nil {
		panic(err)
	}
	return res
}

// baselineSpec is spec's "none" counterpart: same workload, no scheme,
// hardware knobs normalised away (they only matter when checkpointing)
// so every knob setting shares one baseline run.
func baselineSpec(spec Spec) Spec {
	b := spec
	b.Scheme = "none"
	b.WSIGBits, b.DepSets, b.LogAllWB = 0, 0, false
	return b
}

// Baseline returns (memoized) the no-checkpointing run for spec's
// app/procs/scale.
func Baseline(spec Spec) Result {
	return MustRun(baselineSpec(spec))
}

// Overhead runs spec and returns its checkpointing overhead as a
// fraction of the baseline execution time, with both results.
func Overhead(spec Spec) (float64, Result, Result) {
	base := Baseline(spec)
	res := MustRun(spec)
	ovh := float64(res.Cycles)/float64(base.Cycles) - 1
	if ovh < 0 {
		ovh = 0
	}
	return ovh, res, base
}

// --- text tables ----------------------------------------------------------

// TableData is a formatted experiment outcome.
type TableData struct {
	Title   string
	Unit    string
	Columns []string
	Rows    []TableRow
}

// TableRow is one labelled row of values.
type TableRow struct {
	Label  string
	Values []float64
}

// Format renders an aligned text table.
func (t TableData) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&sb, "  [%s]", t.Unit)
	}
	sb.WriteByte('\n')
	width := 12
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	label := 16
	for _, r := range t.Rows {
		if len(r.Label)+2 > label {
			label = len(r.Label) + 2
		}
	}
	fmt.Fprintf(&sb, "%-*s", label, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%*s", width, c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", label, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&sb, "%*.2f", width, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// avgRow appends an average row (mean of each column) to rows.
func avgRow(rows []TableRow) TableRow {
	if len(rows) == 0 {
		return TableRow{Label: "Average"}
	}
	n := len(rows[0].Values)
	avg := make([]float64, n)
	for _, r := range rows {
		for i, v := range r.Values {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= float64(len(rows))
	}
	return TableRow{Label: "Average", Values: avg}
}

// appNames extracts names from profiles.
func appNames(ps []*workload.Profile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// splashApps returns the SPLASH-2 application names (incl. Raytrace).
func splashApps() []string {
	names := appNames(workload.SPLASH2())
	return append(names, "Raytrace")
}

// parsecApps returns PARSEC + Apache names.
func parsecApps() []string {
	names := appNames(workload.PARSEC())
	return append(names, "Apache")
}
