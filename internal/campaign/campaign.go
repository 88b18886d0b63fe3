// Package campaign is the Monte Carlo fault-campaign engine: it runs
// many deterministic fault-injected trials of one experiment cell and
// aggregates their recovery behaviour — MTTR, availability, rolled-back
// work, recovery interaction-set sizes — into a Report with confidence
// intervals. It turns the §3.2 fault model (exercised elsewhere by a
// handful of hand-written tests) into a scenario-diversity workhorse:
// the paper's headline recovery guarantee, measured across thousands of
// randomly-placed fault scenarios instead of asserted on two.
//
// Determinism contract, inherited from the harness runner and extended
// to faults: a trial is a pure function of (campaign Spec, trial
// index). The machine stream comes from harness.DeriveSeed(Base) —
// every trial replays the same program, paired exactly like scheme
// comparisons — and the fault placement comes from TrialSeed(spec,
// index), never from scheduling order. Serial, parallel and
// interrupt-then-resume executions of a campaign therefore produce
// byte-identical Reports.
//
// Persistence: given a store, the engine writes each finished trial and
// the final report into the namespace campaigns/<key> (content-
// addressed on the campaign key), so an interrupted campaign resumes
// from its completed trials instead of restarting, and a finished
// campaign is served without simulating. The warmed machine snapshot
// every trial forks from persists too (store.PutSnapshot under
// warmKey), so a restarted process cold-starts to its first trial with
// one store read and zero warmups. Stored records are verified on
// read: a torn trial write or corrupt snapshot is detected and redone,
// never folded into a Report.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// Spec describes one campaign: the base experiment cell plus the fault
// grid — trial count, faults per trial, injection window (together with
// Faults, the fault rate) and detection-latency bound — and the
// campaign seed. Equal Specs denote the same campaign: same key, same
// trials, same Report.
type Spec struct {
	// Base is the experiment cell every trial simulates (application,
	// processor count, scheme, scale, knobs).
	Base harness.Spec `json:"base"`
	// Trials is the number of Monte Carlo trials.
	Trials int `json:"trials"`
	// Faults is the number of transient faults injected per trial.
	Faults int `json:"faults"`
	// Window spreads each trial's faults over this many cycles after
	// warm-up; 0 selects the injector default (100×L). Faults/Window is
	// the campaign's fault rate.
	Window uint64 `json:"window,omitempty"`
	// DetectLatency bounds each fault's detection latency in cycles;
	// 0 selects the scale's L. Must not exceed the scale's L (§3.2
	// requires detection within L for recovery to be safe).
	DetectLatency uint64 `json:"detect_latency,omitempty"`
	// Seed is folded into every trial's fault seed via TrialSeed.
	Seed uint64 `json:"seed"`
}

// Bounds for Validate, in the spirit of harness.MaxProcs: generous
// enough for any serious campaign, tight enough that one request cannot
// ask a service for an absurd amount of work.
const (
	MaxTrials = 100_000
	MaxFaults = 256
	MaxWindow = uint64(1) << 32
)

// Validate reports whether the spec describes a runnable campaign: a
// valid base cell and a fault grid within bounds.
func (s Spec) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	if s.Trials < 1 || s.Trials > MaxTrials {
		return fmt.Errorf("campaign: trials %d out of range [1, %d]", s.Trials, MaxTrials)
	}
	if s.Faults < 1 || s.Faults > MaxFaults {
		return fmt.Errorf("campaign: faults %d out of range [1, %d]", s.Faults, MaxFaults)
	}
	if s.Window > MaxWindow {
		return fmt.Errorf("campaign: window %d out of range [0, %d]", s.Window, MaxWindow)
	}
	if s.DetectLatency > uint64(s.Base.Scale.DetectLatency) {
		return fmt.Errorf("campaign: detect latency %d exceeds the scale's L (%d)",
			s.DetectLatency, uint64(s.Base.Scale.DetectLatency))
	}
	return nil
}

// trialSemantics versions the trial executor's behaviour inside the
// campaign identity. Bump it whenever a change alters what a trial
// simulates or records (warmup shape, window bounding, settle/cool-down
// policy): the campaign key addresses the persistent trial store, and
// without the version a resumed campaign would silently mix trials
// computed under two incompatible executors into one cached Report.
// v2: snapshot-engine semantics — warmup settles to a snapshot-safe
// point, the trial is bounded by the fault window plus quiesce instead
// of the full instruction budget, 2L cool-down.
// v3: stats.Summary gained the p99 tail quantile — the Report schema
// changed, and a v2-era stored report would be served with zero p99
// fields next to freshly-computed non-zero ones.
const trialSemantics = "v3"

// Key returns the canonical identity of the campaign: the trial
// semantics version, the base cell's canonical key and every
// fault-grid field, in a fixed order.
//
// The base's shard count is normalized away first: it changes how the
// machine's snapshot plane is parallelized, never what a trial
// simulates, so campaigns differing only in Base.Shards are the same
// campaign — they share persisted trials, reports and TrialSeed fault
// placements (the byte-identity the equivalence suite in
// internal/machine asserts). warmKey normalizes it the same way: the
// persisted snapshot bytes do not depend on it either.
func (s Spec) Key() string {
	base := s.Base
	base.Shards = 0
	return fmt.Sprintf("campaign|%s|%s|trials=%d|faults=%d|win=%d|L=%d|seed=%d",
		trialSemantics, base.Key(), s.Trials, s.Faults, s.Window, s.DetectLatency, s.Seed)
}

// KeyOf returns the content address of a campaign: the hex sha256 of
// its canonical key. It is the public identifier the service exposes
// and the store namespace the engine persists under.
func KeyOf(s Spec) string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}

// TrialSeed maps (campaign key, trial index) to the trial's fault seed,
// à la harness.DeriveSeed: an FNV-1a hash of the campaign's canonical
// key and the index, finished with a splitmix64 round. A pure function
// of campaign identity — never of which worker runs the trial or in
// what order — which is what makes parallel campaigns byte-identical to
// serial ones and lets a resumed campaign re-derive exactly the
// remaining trials.
func TrialSeed(s Spec, index int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|trial=%d", s.Key(), index)
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Trial is the outcome of one fault-injected trial.
type Trial struct {
	Index int    `json:"index"`
	Seed  uint64 `json:"seed"`
	// Injected/Detected count the trial's faults and their detections.
	Injected int `json:"injected"`
	Detected int `json:"detected"`
	// Recoveries lists the per-rollback recovery latencies in cycles
	// (detection to all processors resumed), in protocol-completion
	// order; IRECSizes the matching recovery interaction-set sizes.
	Recoveries []uint64 `json:"recoveries,omitempty"`
	IRECSizes  []int    `json:"irec_sizes,omitempty"`
	// Restored counts log entries written back to memory by rollbacks.
	Restored uint64 `json:"restored"`
	// WastedCycles approximates the rolled-back work: per rollback, the
	// largest per-processor rollback distance times the set size
	// (processor-cycles that must be re-executed).
	WastedCycles uint64 `json:"wasted_cycles"`
	// RollStallCycles is the summed per-processor cycles stalled in
	// rollback/recovery — the unavailability the trial measured.
	RollStallCycles uint64 `json:"roll_stall_cycles"`
	// Tainted lists every processor that ever consumed poisoned data,
	// ascending.
	Tainted []int `json:"tainted,omitempty"`
	// EndCycle and Instructions describe the trial's total execution
	// (re-executed instructions after rollbacks count again).
	EndCycle     uint64 `json:"end_cycle"`
	Instructions uint64 `json:"instructions"`
	// VerifyOK is the poison verifier's verdict: recovery was complete,
	// no poisoned value survives anywhere, and every tainted processor
	// was rolled back. VerifyError carries the first violation.
	VerifyOK    bool   `json:"verify_ok"`
	VerifyError string `json:"verify_error,omitempty"`
}

// settleSlice is the granularity at which a trial's settle loop runs
// the machine while waiting for in-flight recoveries to finish.
const settleSlice = sim.Cycle(25_000)

// warmSettleLimit bounds the post-warmup settle to the machine's next
// snapshot-safe point (machine.SettleForSnapshot).
const warmSettleLimit = sim.Cycle(400_000)

// warm runs the deterministic fault-free warmup every trial of a
// campaign shares: a quarter of the instruction budget (so checkpoints
// exist before the first fault can land) plus the settle to the next
// snapshot-safe point. It reports whether that point was reached. Both
// trial executors run exactly this — the fresh builder because it is
// the reference semantics, the snapshot engine because the state it
// captures here is what every restored trial resumes from — so the two
// stay byte-identical by construction.
func warm(m *machine.Machine, spec Spec) bool {
	budget := spec.Base.Scale.InstrPerProc * uint64(spec.Base.Procs)
	m.Run(budget / 4)
	return m.SettleForSnapshot(warmSettleLimit)
}

// runPhase executes the fault scenario of trial (spec, index) on a
// warmed machine: launch the faults over the window, run the window
// (plus detection margin) out, settle until the injector quiesces, and
// score the trial. The trial is bounded by the fault window rather than
// the remaining instruction budget — recovery behaviour is what the
// campaign measures, and the post-recovery tail added nothing but
// simulated cycles (this bound is where the bulk of the engine's
// throughput comes from; see BENCH_hotpath.json).
func runPhase(m *machine.Machine, spec Spec, index int) Trial {
	fs := fault.Spec{
		Faults:           spec.Faults,
		Window:           sim.Cycle(spec.Window),
		MaxDetectLatency: sim.Cycle(spec.DetectLatency),
		Seed:             TrialSeed(spec, index),
	}
	inj := fault.New(m, fs)
	inj.Launch()
	L := m.Cfg.DetectLatency
	m.RunCycles(inj.ResolvedWindow() + 2*L)

	// Settle: faults detected near the end of the window may still be
	// mid-recovery; run bounded extra slices until the injector
	// quiesces. The bound keeps a scheme that never recovers (e.g.
	// "none") from spinning forever — Verify then reports the surviving
	// poison.
	maxSlices := 160 + int((inj.ResolvedWindow()+L)/settleSlice)
	for i := 0; i < maxSlices && !inj.Quiesced(); i++ {
		m.RunCycles(settleSlice)
	}
	if inj.Quiesced() {
		// A short cool-down so protocol tails (resume fan-ins, stall
		// accounting) land before the verifier inspects the machine.
		m.RunCycles(2 * L)
	}
	m.FinalizeStats()

	tr := Trial{
		Index:        index,
		Seed:         fs.Seed,
		Injected:     inj.Injected,
		Detected:     inj.Detected,
		Tainted:      inj.TaintedEver.Elems(),
		EndCycle:     m.St.EndCycle,
		Instructions: m.St.TotalInstructions(),
	}
	if n := len(m.St.Rollbacks); n > 0 {
		// Pre-size from the rollback count instead of growing by append.
		tr.Recoveries = make([]uint64, 0, n)
		tr.IRECSizes = make([]int, 0, n)
	}
	for _, rb := range m.St.Rollbacks {
		tr.Recoveries = append(tr.Recoveries, rb.End-rb.Start)
		tr.IRECSizes = append(tr.IRECSizes, rb.Size)
		tr.Restored += rb.Restored
		tr.WastedCycles += uint64(rb.MaxRollbackCycles) * uint64(rb.Size)
	}
	for _, c := range m.St.RollStall {
		tr.RollStallCycles += c
	}
	if err := inj.Verify(); err != nil {
		tr.VerifyError = err.Error()
	} else {
		tr.VerifyOK = true
	}
	return tr
}

// RunTrial executes one trial on the calling goroutine, building and
// warming a fresh machine: the base cell simulated with spec.Faults
// faults placed by TrialSeed(spec, index). It is the uncached reference
// executor — a pure function of (spec, index), with no shared state
// between invocations — that the equivalence suites compare the
// snapshot engine against, and the TrialRunner's fallback for cells
// that never reach a snapshot-safe point. The TrialRunner produces
// byte-identical trials without the per-trial rebuild.
func RunTrial(spec Spec, index int) (Trial, error) {
	m, err := harness.Build(spec.Base)
	if err != nil {
		return Trial{}, err
	}
	warm(m, spec)
	return runPhase(m, spec, index), nil
}

// warmSemantics versions the warmup the shared snapshot captures. Bump
// it whenever warm() changes what state the snapshot holds (budget
// fraction, settle policy): the persistent-snapshot key embeds it, so a
// stale stored snapshot is invalidated instead of restored.
const warmSemantics = "warm-v1"

// warmKey is the persistent-snapshot address of spec's warmed machine:
// the codec's format version, the warmup semantics version, and the
// full base-cell key. The full key — not just the reuse-relevant subset
// — because the warm state depends on everything the cell does during
// warmup, the scheme very much included. Only the shard count is
// dropped, as in Spec.Key: the payload is the same at every count, so
// one stored snapshot serves them all.
func warmKey(spec Spec) string {
	base := spec.Base
	base.Shards = 0
	return fmt.Sprintf("machine-snapshot|fmt=%d|%s|%s",
		machine.SnapshotFormat, warmSemantics, base.Key())
}

// SnapshotStore is the tier a TrialRunner loads its warm snapshot from
// and persists it to. *store.Store implements it for the local shared
// directory; the cluster's remote client implements it over the
// coordinator's /v1/store proxy, which is how a remote worker
// cold-starts to its first trial with one store read.
type SnapshotStore interface {
	GetSnapshot(snapKey string) (payload []byte, ok bool, err error)
	PutSnapshot(snapKey string, payload []byte) error
}

// TrialRunner runs the trials of one campaign Spec through the machine
// snapshot engine: ONE machine is built and warmed (or its warm state
// loaded from the store), its post-warmup state captured with
// machine.Snapshot, and every worker machine is forked from that single
// shared snapshot — N workers cost one warmup plus N-1 copy-on-write
// forks, not N warmups. Every trial rewinds its machine with
// machine.Restore, which after the first restore copies back only the
// pages the trial dirtied. Trials are byte-identical to RunTrial's
// because both share warm()/runPhase() and Restore rewinds the complete
// machine state.
//
// With a store attached, the serialized snapshot persists under
// warmKey(spec): a restarted process (reboundd cold start) reaches its
// first trial with one store read and zero warmups.
//
// A TrialRunner is safe for concurrent use: the fork pool grows to the
// number of concurrent callers. If the base cell never reaches a
// snapshot-safe point (SettleForSnapshot gives up), Run falls back to
// the fresh-build path — still byte-identical, since the reference
// executor settles the same way.
type TrialRunner struct {
	spec Spec
	st   SnapshotStore // optional persistent-snapshot tier

	// init runs the single build+warm (or store load); workers arriving
	// during it wait instead of warming their own machine.
	init    sync.Once
	initErr error
	// proto is the machine the snapshot was captured on (or loaded
	// into). It doubles as the first worker; Fork only reads its
	// immutable shape (Config, workload profile), so forking from it is
	// safe even while it runs trials.
	proto    *machine.Machine
	snap     *machine.MachineSnapshot // the one shared warm snapshot
	snapshot bool                     // false: cell cannot snapshot, use fresh builds

	mu          sync.Mutex
	free        []*machine.Machine
	protoIssued bool // proto has been handed out as a worker

	// Counters expose the runner's economics to tests and metrics.
	warmups atomic.Uint64 // full build+warm executions (1 per runner, 0 after a store hit)
	loads   atomic.Uint64 // snapshots restored from the store
	forks   atomic.Uint64 // worker machines forked from the shared snapshot
	fresh   atomic.Uint64 // trials that fell back to the fresh-build path
}

// NewTrialRunner returns a runner for spec's trials with no persistent
// snapshot cache.
func NewTrialRunner(spec Spec) *TrialRunner { return NewTrialRunnerStored(spec, nil) }

// NewTrialRunnerStored returns a runner that loads its warm snapshot
// from st when a valid one is stored, and persists it after warming
// otherwise. st may be nil (a typed-nil *store.Store is normalized so
// the interface comparison below stays honest).
func NewTrialRunnerStored(spec Spec, st SnapshotStore) *TrialRunner {
	if s, ok := st.(*store.Store); ok && s == nil {
		st = nil
	}
	return &TrialRunner{spec: spec, st: st}
}

// Counters returns the runner's economics: warmups (full build+warm
// executions), loads (snapshots restored from the store), forks (worker
// machines forked from the shared snapshot) and fresh (trials that fell
// back to the fresh-build path).
func (t *TrialRunner) Counters() (warmups, loads, forks, fresh uint64) {
	return t.warmups.Load(), t.loads.Load(), t.forks.Load(), t.fresh.Load()
}

// initialize builds the prototype machine and produces the shared warm
// snapshot: from the store when a valid serialized snapshot exists
// under warmKey, by running the warmup otherwise (persisting the result
// for the next process). Called exactly once per runner.
func (t *TrialRunner) initialize() error {
	m, err := harness.Build(t.spec.Base)
	if err != nil {
		return err
	}
	if t.st != nil {
		if payload, ok, err := t.st.GetSnapshot(warmKey(t.spec)); ok && err == nil {
			if snap, err := m.DecodeSnapshot(payload); err == nil {
				if err := m.Restore(snap); err == nil {
					t.loads.Add(1)
					t.proto, t.snap, t.snapshot = m, snap, true
					return nil
				}
			}
		}
		// A corrupt or stale stored snapshot is a miss: re-warm and
		// overwrite it below.
	}
	t.warmups.Add(1)
	if !warm(m, t.spec) {
		t.snapshot = false
		return nil
	}
	snap := new(machine.MachineSnapshot)
	if err := m.Snapshot(snap); err != nil {
		t.snapshot = false
		return nil
	}
	t.proto, t.snap, t.snapshot = m, snap, true
	if t.st != nil {
		// Persist for the next process. A scheme that snapshots in
		// memory but does not implement machine.SchemePersister simply
		// stays memory-only; store write failures are surfaced.
		if payload, err := m.EncodeSnapshot(snap); err == nil {
			if err := t.st.PutSnapshot(warmKey(t.spec), payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// acquire returns a machine carrying the shared warm snapshot, forking
// a new one if the pool is empty. ok=false means snapshotting is
// unsupported for this cell and the caller must use the fresh-build
// path.
func (t *TrialRunner) acquire() (*machine.Machine, bool, error) {
	t.init.Do(func() { t.initErr = t.initialize() })
	if t.initErr != nil {
		return nil, false, t.initErr
	}
	if !t.snapshot {
		return nil, false, nil
	}
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		m := t.free[n-1]
		t.free = t.free[:n-1]
		t.mu.Unlock()
		return m, true, nil
	}
	// The prototype itself serves as the first worker.
	if !t.protoIssued {
		t.protoIssued = true
		t.mu.Unlock()
		return t.proto, true, nil
	}
	t.mu.Unlock()

	// Fork outside the lock: Fork only reads the parent's immutable
	// shape and the snapshot, so concurrent forks are safe and don't
	// serialize — even against the prototype running a trial.
	scheme, err := harness.SchemeFor(t.spec.Base.Scheme)
	if err != nil {
		return nil, false, err
	}
	m, err := t.proto.Fork(t.snap, scheme)
	if err != nil {
		return nil, false, err
	}
	t.forks.Add(1)
	return m, true, nil
}

func (t *TrialRunner) release(m *machine.Machine) {
	t.mu.Lock()
	t.free = append(t.free, m)
	t.mu.Unlock()
}

// Prewarm readies the runner for n concurrent workers: one warmup (or
// one store load) produces the shared snapshot, and the pool is topped
// up to n forked machines — never n warmups. It acquires all n before
// releasing any, which is what guarantees n distinct machines.
func (t *TrialRunner) Prewarm(n int) error {
	ms := make([]*machine.Machine, 0, n)
	for i := 0; i < n; i++ {
		m, ok, err := t.acquire()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		t.release(m)
	}
	return nil
}

// Run executes trial index and returns its record: restore the warmed
// snapshot, run the fault scenario — or the fresh-build fallback when
// the cell cannot be snapshotted.
func (t *TrialRunner) Run(index int) (Trial, error) {
	m, ok, err := t.acquire()
	if err != nil {
		return Trial{}, err
	}
	if !ok {
		t.fresh.Add(1)
		return RunTrial(t.spec, index)
	}
	if err := m.Restore(t.snap); err != nil {
		return Trial{}, err
	}
	tr := runPhase(m, t.spec, index)
	// A panicking trial abandons the machine (the caller recovers);
	// only a completed one returns to the pool.
	t.release(m)
	return tr, nil
}

// Report aggregates a finished campaign. Marshalled to JSON it is the
// campaign's canonical artifact: byte-identical across serial, parallel
// and interrupt-then-resume executions of the same Spec.
type Report struct {
	// Key is the campaign's content address (KeyOf(Spec)).
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
	// Trials is the number of trials aggregated; VerifiedOK how many
	// passed the poison verifier (the recovery guarantee holds for the
	// campaign exactly when VerifiedOK == Trials).
	Trials     int `json:"trials"`
	VerifiedOK int `json:"verified_ok"`
	// Campaign-wide totals.
	FaultsInjected int `json:"faults_injected"`
	FaultsDetected int `json:"faults_detected"`
	Rollbacks      int `json:"rollbacks"`
	// Recovery summarises per-rollback recovery latency in cycles
	// (detection to all processors resumed, the Fig 6.6c framing);
	// IREC the recovery interaction-set sizes in processors; Wasted the
	// per-trial rolled-back work in processor-cycles.
	Recovery stats.Summary `json:"recovery_cycles"`
	IREC     stats.Summary `json:"irec_procs"`
	Wasted   stats.Summary `json:"wasted_cycles"`
	// MTTRms is the mean recovery latency in milliseconds at the
	// paper's 1 GHz clock (Recovery.Mean / 1e6).
	MTTRms float64 `json:"mttr_ms"`
	// Availability is measured, not modelled: the fraction of
	// processor-cycles not stalled in rollback/recovery across all
	// trials. WastedWorkFrac is the fraction of processor-cycles whose
	// work was rolled back and re-executed.
	Availability   float64 `json:"availability"`
	WastedWorkFrac float64 `json:"wasted_work_frac"`
	// TrialRecords lists every trial, in index order.
	TrialRecords []Trial `json:"trial_records"`
}

// buildReport aggregates trials (all non-nil, in index order) into the
// campaign's Report. Pure function of its inputs: aggregation order is
// trial order, never completion order.
func buildReport(spec Spec, trials []Trial) *Report {
	rep := &Report{
		Key:          KeyOf(spec),
		Spec:         spec,
		Trials:       len(trials),
		TrialRecords: trials,
	}
	var recoveries, irecs, wasted []float64
	var stall, procCycles, wastedTotal uint64
	nprocs := uint64(spec.Base.Procs)
	for _, tr := range trials {
		if tr.VerifyOK {
			rep.VerifiedOK++
		}
		rep.FaultsInjected += tr.Injected
		rep.FaultsDetected += tr.Detected
		rep.Rollbacks += len(tr.Recoveries)
		for _, r := range tr.Recoveries {
			recoveries = append(recoveries, float64(r))
		}
		for _, s := range tr.IRECSizes {
			irecs = append(irecs, float64(s))
		}
		wasted = append(wasted, float64(tr.WastedCycles))
		stall += tr.RollStallCycles
		wastedTotal += tr.WastedCycles
		procCycles += tr.EndCycle * nprocs
	}
	rep.Recovery = stats.Summarize(recoveries)
	rep.IREC = stats.Summarize(irecs)
	rep.Wasted = stats.Summarize(wasted)
	rep.MTTRms = rep.Recovery.Mean / 1e6
	if procCycles > 0 {
		rep.Availability = 1 - float64(stall)/float64(procCycles)
		rep.WastedWorkFrac = float64(wastedTotal) / float64(procCycles)
	}
	return rep
}

// Store-namespace record names.
const (
	nsCampaigns = "campaigns"
	reportName  = "report"
)

func trialName(i int) string { return fmt.Sprintf("trial-%06d", i) }

// --- distributed-execution surface ----------------------------------------
//
// The cluster coordinator shards a campaign's trial indices across
// workers and merges the records they push back through the store into
// a Report. Everything it needs is exported here so the merge is the
// SAME code path as local execution: identical record names, identical
// validation, identical aggregation — hence byte-identical Reports no
// matter where each trial ran.

// TrialRecordName returns the store record name of trial index i —
// the name remote workers push under and resumed campaigns read from.
func TrialRecordName(i int) string { return trialName(i) }

// ReportRecordName is the store record name of a finished campaign's
// Report within its namespace.
const ReportRecordName = reportName

// TrialNamespace returns the store namespace campaign key's trial
// records and report live in: the one Engine persists through locally
// and the coordinator merges from in distributed runs.
func TrialNamespace(st *store.Store, key string) (*store.Namespace, error) {
	return st.Namespace(nsCampaigns, key)
}

// NamespacePath returns the namespace path segments of a campaign
// key's records, for store tiers addressed by path (the cluster's
// /v1/store proxy). It mirrors TrialNamespace exactly — the remote
// write lands in the same directory a local PutJSON would.
func NamespacePath(key string) []string { return []string{nsCampaigns, key} }

// ValidTrial reports whether tr is the authentic record of trial
// (spec, index): it self-identifies with the right index and the seed
// derived from the campaign identity. This is the only trust a stored
// or remotely-produced trial record ever gets — a record that fails it
// is re-run, which rewrites the byte-identical truth.
func ValidTrial(spec Spec, index int, tr *Trial) bool {
	return tr != nil && tr.Index == index && tr.Seed == TrialSeed(spec, index)
}

// Assemble merges a campaign's complete trial set into its Report:
// exactly len == spec.Trials records, each validated with ValidTrial
// at its index. It is the exported form of the aggregation local runs
// use, so a Report assembled from remotely-produced records is
// byte-identical to one computed in process.
func Assemble(spec Spec, trials []Trial) (*Report, error) {
	if len(trials) != spec.Trials {
		return nil, fmt.Errorf("campaign: assemble: %d trials, want %d", len(trials), spec.Trials)
	}
	for i := range trials {
		if !ValidTrial(spec, i, &trials[i]) {
			return nil, fmt.Errorf("campaign: assemble: record at index %d is not trial %d of this campaign", i, i)
		}
	}
	return buildReport(spec, trials), nil
}

// Engine runs campaigns: trials fan out across a harness.Runner's
// worker pool on one TrialRunner (the snapshot engine), and — when a
// store is attached — each finished trial and the final report persist
// under the campaign's content address, so interrupted campaigns resume
// and finished ones are served from disk.
type Engine struct {
	runner *harness.Runner
	st     *store.Store

	// OnProgress, if set, observes trial completion: done trials out of
	// total, counting trials restored from the store. It is called from
	// worker goroutines and must be safe for concurrent use.
	OnProgress func(done, total int)
}

// New returns an engine running on runner. st may be nil for an
// in-memory campaign (no resume, no persistence).
func New(runner *harness.Runner, st *store.Store) *Engine {
	return &Engine{runner: runner, st: st}
}

// namespace returns the campaign's store namespace, or nil without a
// store.
func (e *Engine) namespace(key string) (*store.Namespace, error) {
	if e.st == nil {
		return nil, nil
	}
	return e.st.Namespace(nsCampaigns, key)
}

// LoadReport returns the stored report for a campaign key, if the
// engine has a store and the campaign finished. A stored report whose
// embedded key disagrees with its address is reported as an error,
// never served.
func (e *Engine) LoadReport(key string) (*Report, bool, error) {
	ns, err := e.namespace(key)
	if ns == nil || err != nil {
		return nil, false, err
	}
	var rep Report
	ok, err := ns.GetJSON(reportName, &rep)
	if !ok || err != nil {
		return nil, false, err
	}
	if rep.Key != key {
		return nil, false, fmt.Errorf("campaign: stored report under %s claims key %s", key, rep.Key)
	}
	return &rep, true, nil
}

// Run executes the campaign, fanning trials out across the runner's
// worker pool. Trials already persisted (a finished or interrupted
// earlier execution) are restored instead of re-simulated; a campaign
// whose report is already stored returns it without running anything.
// A canceled context stops trials that have not started; trials
// already simulating run to completion and persist, so the next Run
// resumes from them. The Report is byte-identical to RunSerial's.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Report, error) {
	return e.run(ctx, spec, false)
}

// RunSerial executes the campaign's trials one at a time on the calling
// goroutine, in index order: the reference executor the determinism
// suite compares Run against.
func (e *Engine) RunSerial(ctx context.Context, spec Spec) (*Report, error) {
	return e.run(ctx, spec, true)
}

func (e *Engine) run(ctx context.Context, spec Spec, serial bool) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key := KeyOf(spec)
	ns, err := e.namespace(key)
	if err != nil {
		return nil, err
	}
	if rep, ok, err := e.LoadReport(key); err != nil {
		return nil, err
	} else if ok {
		e.note(spec.Trials, spec.Trials)
		return rep, nil
	}

	// Restore persisted trials (resume). A record is trusted only if it
	// self-identifies: right index, right derived seed — a store dir
	// shared across campaign definitions can never leak a stale trial.
	trials := make([]*Trial, spec.Trials)
	var done int64
	if ns != nil {
		for i := range trials {
			var tr Trial
			if ok, err := ns.GetJSON(trialName(i), &tr); err == nil && ok && ValidTrial(spec, i, &tr) {
				trials[i] = &tr
				done++
			}
		}
	}
	if done > 0 {
		e.note(int(done), spec.Trials)
	}

	missing := make([]int, 0, spec.Trials)
	for i, tr := range trials {
		if tr == nil {
			missing = append(missing, i)
		}
	}
	// The runner shares the engine's store, so the warm snapshot
	// persists across process restarts: a resumed campaign re-warms
	// nothing, it loads the snapshot and forks.
	trunner := NewTrialRunnerStored(spec, e.st)
	runOne := func(i int) (err error) {
		// Contain simulator panics the way Runner.RunOne does (a config
		// that passes Validate but panics in the machine): a campaign
		// runs trials on background goroutines inside reboundd, where an
		// unrecovered panic would take down the whole daemon instead of
		// failing the job.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("campaign: trial %d: panic: %v", i, p)
			}
		}()
		// Snapshot engine: warm once per pooled machine, restore per
		// trial (a panicking trial abandons its machine, so the pool
		// never holds corrupted state).
		tr, err := trunner.Run(i)
		if err != nil {
			return err
		}
		if ns != nil {
			if err := ns.PutJSON(trialName(i), &tr); err != nil {
				return err
			}
		}
		trials[i] = &tr
		e.note(int(atomic.AddInt64(&done, 1)), spec.Trials)
		return nil
	}

	if !serial && len(missing) > 1 {
		// Populate the fork pool before fanning out: one warmup (or one
		// store load), then one copy-on-write fork per worker. Without
		// this the first wave of trials still forks lazily and
		// correctly — Prewarm just moves the fork cost out of the first
		// measured trial of each worker.
		n := e.runner.Workers()
		if n > len(missing) {
			n = len(missing)
		}
		if err := trunner.Prewarm(n); err != nil {
			return nil, err
		}
	}
	errs := make([]error, len(missing))
	if serial {
		for j, i := range missing {
			if err := ctx.Err(); err != nil {
				break
			}
			errs[j] = runOne(i)
		}
	} else {
		e.runner.FanOut(ctx, len(missing), func(j int) { errs[j] = runOne(missing[j]) })
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, tr := range trials {
		if tr == nil {
			// Cancelled between the feed check and here.
			return nil, context.Canceled
		}
	}

	ordered := make([]Trial, spec.Trials)
	for i, tr := range trials {
		ordered[i] = *tr
	}
	rep := buildReport(spec, ordered)
	if ns != nil {
		if err := ns.PutJSON(reportName, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (e *Engine) note(done, total int) {
	if e.OnProgress != nil {
		e.OnProgress(done, total)
	}
}
