// Package explore is the closed-loop scheme-space optimizer over the
// campaign and harness engines: given a workload and a search space —
// a scheme set crossed with checkpoint-interval, write-signature,
// Dep-set and shard axes — it evaluates candidate cells against a
// two-objective frontier (verified availability from fault campaigns,
// maximized, against runtime overhead from fault-free runs, minimized)
// and reports the Pareto-dominant configurations.
//
// Two strategies share one evaluation substrate. "grid" evaluates
// every cell at the full trial budget — the exhaustive reference.
// "halving" (the default) seeds the grid at a quarter of the budget,
// then spends the remaining trials only on cells the low-fidelity rung
// left Pareto-undominated: the classic successive-halving economy,
// reaching the same frontier for a fraction of the grid's trials
// (the efficiency tests pin the ratio).
//
// Determinism contract, inherited from the layers below: a cell's
// evaluation is a pure function of its campaign spec (campaign.TrialSeed
// fault placement, harness.DeriveSeed machine streams), so the
// FrontierReport is a pure function of the explore Spec — byte-identical
// across fresh processes, resumed explorations and cluster-routed
// evaluation. Budget accounting (TrialsSpent) is likewise charged from
// the spec alone, whether a cell was simulated or served from the
// store, so the report's economics never leak cache state.
//
// Persistence: with a store attached, every evaluated cell persists in
// the shared explore/cells namespace under its campaign content
// address — incremental across restarts and shared across explorations
// and users (two Specs that intersect share the intersection) — and
// each finished exploration's report persists under its own key in
// explore/reports. The Counters economics (evaluated vs store hits)
// are how the smoke tests assert a re-run simulates nothing.
package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/store"
)

// Spec describes one exploration: the fixed workload (App, Procs,
// Scale), the search space (Schemes × Intervals × WSIGBits × DepSets ×
// Shards), the per-cell campaign grid (Trials, Faults, Seed) and the
// search strategy. Equal normalized Specs denote the same exploration:
// same key, same cells, same FrontierReport bytes.
type Spec struct {
	App   string        `json:"app"`
	Procs int           `json:"procs"`
	Scale harness.Scale `json:"scale"`

	// The search space. Schemes is required; empty Intervals defaults
	// to the scale's interval, and empty knob axes to the machine
	// default (0). Axes are sorted and deduplicated by Normalize.
	// Shards crosses harness.Spec.Shards, the snapshot plane's range
	// split, which changes parallelism, never a cell's results.
	Schemes   []string `json:"schemes"`
	Intervals []uint64 `json:"intervals,omitempty"`
	WSIGBits  []int    `json:"wsigbits,omitempty"`
	DepSets   []int    `json:"depsets,omitempty"`
	Shards    []int    `json:"shards,omitempty"`

	// Trials is the full per-cell campaign budget; Faults the faults
	// per trial; Seed folds into every trial's fault placement.
	// Window and DetectLatency pass through to every cell's campaign
	// (0 selects the campaign defaults).
	Trials        int    `json:"trials"`
	Faults        int    `json:"faults"`
	Window        uint64 `json:"window,omitempty"`
	DetectLatency uint64 `json:"detect_latency,omitempty"`
	Seed          uint64 `json:"seed"`

	// Strategy is "halving" (default) or "grid".
	Strategy string `json:"strategy"`
}

// Strategy names.
const (
	StrategyGrid    = "grid"
	StrategyHalving = "halving"
)

// MaxCells bounds the cross-product: large enough for any serious
// sweep, small enough that one request cannot ask a service to run an
// absurd number of campaigns.
const MaxCells = 4096

// Normalize returns the canonical form of the spec: defaulted axes,
// each axis sorted ascending and deduplicated (Schemes in SchemeNames
// order — the order the evaluation introduces them), zero Procs
// resolved like every other surface (harness.DefaultProcs), zero
// Faults to 1, empty Strategy to halving. Key, Cells and Run all
// operate on the normalized spec, so two requests that differ only in
// axis order or defaulting are the same exploration.
func (s Spec) Normalize() Spec {
	n := s
	if n.Procs == 0 {
		n.Procs = harness.DefaultProcs(n.Scale, n.App)
	}
	if n.Faults == 0 {
		n.Faults = 1
	}
	if n.Strategy == "" {
		n.Strategy = StrategyHalving
	}
	if len(n.Intervals) == 0 {
		n.Intervals = []uint64{n.Scale.Interval}
	}
	if len(n.WSIGBits) == 0 {
		n.WSIGBits = []int{0}
	}
	if len(n.DepSets) == 0 {
		n.DepSets = []int{0}
	}
	if len(n.Shards) == 0 {
		n.Shards = []int{0}
	}
	n.Schemes = canonSchemes(n.Schemes)
	n.Intervals = dedupU64(n.Intervals)
	n.WSIGBits = dedupInt(n.WSIGBits)
	n.DepSets = dedupInt(n.DepSets)
	// Shards 0 and 1 both mean one range everywhere else;
	// canonicalise before dedup so [0 1] is one point, not two.
	sh := append([]int(nil), n.Shards...)
	for i, v := range sh {
		if v == 0 {
			sh[i] = 1
		}
	}
	n.Shards = dedupInt(sh)
	return n
}

// canonSchemes orders schemes by their SchemeNames position (unknown
// names last, lexically — Validate rejects them with the vocabulary),
// deduplicated.
func canonSchemes(in []string) []string {
	rank := make(map[string]int)
	for i, name := range harness.SchemeNames() {
		rank[name] = i
	}
	out := dedupStr(in)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i]]
		rj, jok := rank[out[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok != jok:
			return iok
		default:
			return out[i] < out[j]
		}
	})
	return out
}

func dedupStr(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out[:uniq(len(out), func(i, j int) bool { return out[i] == out[j] }, func(i, j int) { out[i] = out[j] })]
}

func dedupInt(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out[:uniq(len(out), func(i, j int) bool { return out[i] == out[j] }, func(i, j int) { out[i] = out[j] })]
}

func dedupU64(in []uint64) []uint64 {
	out := append([]uint64(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out[:uniq(len(out), func(i, j int) bool { return out[i] == out[j] }, func(i, j int) { out[i] = out[j] })]
}

// uniq compacts a sorted sequence in place via the callbacks and
// returns the deduplicated length.
func uniq(n int, eq func(i, j int) bool, set func(i, j int)) int {
	if n == 0 {
		return 0
	}
	w := 1
	for r := 1; r < n; r++ {
		if !eq(r, w-1) {
			set(w, r)
			w++
		}
	}
	return w
}

// Validate reports whether the normalized spec describes a runnable
// exploration: a non-empty in-bounds search space whose every cell's
// campaign spec validates.
func (s Spec) Validate() error {
	n := s.Normalize()
	if len(n.Schemes) == 0 {
		return fmt.Errorf("explore: no schemes (valid: %s)", strings.Join(harness.SchemeNames(), " "))
	}
	if n.Strategy != StrategyGrid && n.Strategy != StrategyHalving {
		return fmt.Errorf("explore: unknown strategy %q (valid: %s %s)", n.Strategy, StrategyGrid, StrategyHalving)
	}
	cells := n.Cells()
	if len(cells) > MaxCells {
		return fmt.Errorf("explore: %d cells exceed the limit %d", len(cells), MaxCells)
	}
	for _, c := range cells {
		if err := n.CampaignSpec(c, n.Trials).Validate(); err != nil {
			return fmt.Errorf("explore: cell %s: %w", c.Label(), err)
		}
	}
	return nil
}

// Key returns the canonical identity of the exploration: every field
// that can influence the report, on the normalized spec, in a fixed
// order.
func (s Spec) Key() string {
	n := s.Normalize()
	ints := make([]string, len(n.Intervals))
	for i, v := range n.Intervals {
		ints[i] = fmt.Sprint(v)
	}
	return fmt.Sprintf("explore|v1|%s|p=%d|%s|seed=%d|instr=%d|L=%d|pl=%d|ps=%d|"+
		"schemes=%s|ints=%s|wsig=%v|dep=%v|sh=%v|trials=%d|faults=%d|win=%d|dl=%d|cseed=%d|strat=%s",
		n.App, n.Procs, n.Scale.Name, n.Scale.Seed, n.Scale.InstrPerProc,
		uint64(n.Scale.DetectLatency), n.Scale.ProcsLarge, n.Scale.ProcsSmall,
		strings.Join(n.Schemes, ","), strings.Join(ints, ","),
		n.WSIGBits, n.DepSets, n.Shards, n.Trials, n.Faults, n.Window, n.DetectLatency, n.Seed, n.Strategy)
}

// KeyOf returns the content address of an exploration: the hex sha256
// of its canonical key. It is the public identifier the service
// exposes and the record name the report persists under.
func KeyOf(s Spec) string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}

// Cell is one point of the search space.
type Cell struct {
	Scheme   string `json:"scheme"`
	Interval uint64 `json:"interval"`
	WSIGBits int    `json:"wsigbits,omitempty"`
	DepSets  int    `json:"depsets,omitempty"`
	Shards   int    `json:"shards,omitempty"`
}

// Label renders the cell for errors and progress lines.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/int=%d/wsig=%d/dep=%d/sh=%d",
		c.Scheme, c.Interval, c.WSIGBits, c.DepSets, c.Shards)
}

// Cells enumerates the normalized spec's search space in canonical
// order: scheme outermost (SchemeNames order), then interval, WSIG
// bits, Dep sets, shards, each ascending. This order is the report's
// cell order and must never change — it is part of the byte-identity
// contract.
func (s Spec) Cells() []Cell {
	n := s.Normalize()
	var out []Cell
	for _, scheme := range n.Schemes {
		for _, interval := range n.Intervals {
			for _, wsig := range n.WSIGBits {
				for _, dep := range n.DepSets {
					for _, sh := range n.Shards {
						out = append(out, Cell{Scheme: scheme, Interval: interval,
							WSIGBits: wsig, DepSets: dep, Shards: sh})
					}
				}
			}
		}
	}
	return out
}

// BaseSpec returns the harness cell a search-space point simulates:
// the spec's workload with the point's scheme and knobs, the scale's
// checkpoint interval overridden by the point's.
func (s Spec) BaseSpec(c Cell) harness.Spec {
	sc := s.Scale
	sc.Interval = c.Interval
	return harness.Spec{App: s.App, Procs: s.Procs, Scheme: c.Scheme, Scale: sc,
		WSIGBits: c.WSIGBits, DepSets: c.DepSets, Shards: c.Shards}
}

// CampaignSpec returns the fault campaign evaluating cell c at the
// given trial budget (a halving rung or the full budget).
func (s Spec) CampaignSpec(c Cell, trials int) campaign.Spec {
	return campaign.Spec{Base: s.BaseSpec(c), Trials: trials, Faults: s.Faults,
		Window: s.Window, DetectLatency: s.DetectLatency, Seed: s.Seed}
}

// baselineSpec is the cell's "none" counterpart for the overhead
// objective: same workload and interval, no scheme, knobs normalised
// away — mirroring the harness baseline rule, so every knob setting of
// one interval shares a single baseline run.
func baselineSpec(base harness.Spec) harness.Spec {
	b := base
	b.Scheme = "none"
	b.WSIGBits, b.DepSets, b.LogAllWB = 0, 0, false
	return b
}

// CellResult is the evaluated objective point of one cell at one trial
// budget: the record persisted in the shared explore/cells namespace
// and embedded in FrontierReports.
type CellResult struct {
	Cell
	// Trials is the campaign budget this evaluation ran at (a halving
	// rung or the full budget); CampaignKey the campaign's content
	// address — the record's own identity, verified on read.
	Trials      int    `json:"trials"`
	CampaignKey string `json:"campaign_key"`

	// The availability objective (maximize). Availability weights the
	// campaign's measured availability by its verification rate, so a
	// scheme that leaves poison unrecovered (the "none" strawman most
	// prominently) scores 0, never a spurious 1.0 from having stalled
	// nothing. RawAvailability and VerifiedOK keep the factors.
	Availability    float64 `json:"availability"`
	RawAvailability float64 `json:"raw_availability"`
	VerifiedOK      int     `json:"verified_ok"`

	// Recovery tail, from the campaign's per-rollback latencies.
	MTTRms      float64 `json:"mttr_ms"`
	RecoveryP50 float64 `json:"recovery_p50"`
	RecoveryP99 float64 `json:"recovery_p99"`

	// The overhead objective (minimize): fault-free runtime of the
	// cell against its "none" baseline, as a fraction (0.07 = 7%
	// slower). Cycles/BaseCycles are the raw runtimes; LogBytes the
	// cell's checkpoint-log write volume (the secondary cost axis).
	Overhead   float64 `json:"overhead"`
	Cycles     uint64  `json:"cycles"`
	BaseCycles uint64  `json:"base_cycles"`
	LogBytes   uint64  `json:"log_bytes"`
}

// Dominates reports Pareto dominance on the objective pair: a
// dominates b when a is at least as good on both objectives and
// strictly better on one.
func (a CellResult) Dominates(b CellResult) bool {
	if a.Availability < b.Availability || a.Overhead > b.Overhead {
		return false
	}
	return a.Availability > b.Availability || a.Overhead < b.Overhead
}

// frontier returns the indices of the Pareto-undominated results,
// ascending — evaluation order, which is cell order. Of two identical
// points neither Dominates the other, so ties survive together; only
// strictly-worse points drop.
func frontier(rs []CellResult) []int {
	var out []int
	for i, a := range rs {
		dominated := false
		for j, b := range rs {
			if i != j && b.Dominates(a) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// The two objectives differ in fidelity. Overhead comes from the
// fault-free run, which does not depend on the trial count, so it is
// EXACT at every rung; availability is a Monte Carlo estimate whose
// low-trial value drifts from the full-budget one. Sub-budget rungs
// therefore prune with margins instead of strict dominance:
// pruneAvailMargin is the estimation-noise band on the availability
// axis, pruneOvhMargin the minimum overhead gap that counts as
// decisively cheaper.
const (
	pruneAvailMargin = 0.015
	pruneOvhMargin   = 0.002
)

// rungSurvivors returns the indices of the cells a sub-budget rung
// carries into the next one. A cell is pruned only when some other
// cell beats it decisively: decisively cheaper on the exact axis (by
// more than pruneOvhMargin) while within the noise band on the
// estimated one, or decisively more available (beyond the noise band)
// at no extra overhead. Strict dominance at low fidelity would drop
// true frontier members over estimation noise; the final frontier is
// always drawn from full-budget results with strict dominance.
func rungSurvivors(rs []CellResult) []int {
	var out []int
	for i, a := range rs {
		pruned := false
		for j, b := range rs {
			if i == j {
				continue
			}
			cheaper := b.Overhead <= a.Overhead-pruneOvhMargin &&
				b.Availability >= a.Availability-pruneAvailMargin
			better := b.Overhead <= a.Overhead &&
				b.Availability > a.Availability+pruneAvailMargin
			if cheaper || better {
				pruned = true
				break
			}
		}
		if !pruned {
			out = append(out, i)
		}
	}
	return out
}

// RungReport is the budget ledger of one fidelity rung.
type RungReport struct {
	// Trials is the per-cell budget of the rung; Cells how many cells
	// it evaluated; TrialsSpent their product — charged whether each
	// cell was simulated or served from the store, so the ledger is a
	// pure function of the Spec.
	Trials      int `json:"trials"`
	Cells       int `json:"cells"`
	TrialsSpent int `json:"trials_spent"`
}

// FrontierReport is the exploration's canonical artifact: marshalled
// to JSON it is byte-identical for identical Specs, no matter where or
// in how many sessions the cells were evaluated.
type FrontierReport struct {
	// Key is the exploration's content address (KeyOf(Spec)); Spec the
	// normalized spec.
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
	// Cells lists the full-budget evaluations the frontier was drawn
	// from, in cell order (grid: every cell; halving: the survivors of
	// the seeding rung). Frontier indexes the Pareto-dominant ones,
	// ascending; Dominated counts every candidate cell that is not on
	// the frontier, including cells halving pruned at low fidelity.
	Cells     []CellResult `json:"cells"`
	Frontier  []int        `json:"frontier"`
	Dominated int          `json:"dominated"`
	// The budget ledger: TrialsSpent across all rungs, against the
	// GridTrials an exhaustive evaluation would have spent.
	Rungs       []RungReport `json:"rungs"`
	TrialsSpent int          `json:"trials_spent"`
	GridTrials  int          `json:"grid_trials"`
}

// FrontierCells returns the Pareto-dominant results, in cell order.
func (r *FrontierReport) FrontierCells() []CellResult {
	out := make([]CellResult, len(r.Frontier))
	for i, idx := range r.Frontier {
		out[i] = r.Cells[idx]
	}
	return out
}

// Evaluator abstracts where a cell's simulations run: locally on a
// runner (Local), or routed through a cluster coordinator (the service
// wraps its campaign submission path). Both must be deterministic
// functions of their specs — the explorer's byte-identity rests on it.
type Evaluator interface {
	// Campaign runs (or resumes, or serves from store) the fault
	// campaign and returns its report.
	Campaign(ctx context.Context, spec campaign.Spec) (*campaign.Report, error)
	// Run executes (or serves from store) one fault-free cell.
	Run(ctx context.Context, spec harness.Spec) (harness.Result, error)
}

// Local is the in-process Evaluator: campaigns on a campaign.Engine,
// runs on a harness.Runner, both persisted through the store when one
// is attached (fault-free run records land in the same content-
// addressed store the service uses, so an exploration warms the run
// cache for everything else).
type Local struct {
	Runner *harness.Runner
	Engine *campaign.Engine
	Store  *store.Store // may be nil
}

// NewLocal wires a Local evaluator on runner and st (st may be nil
// for a memory-only exploration).
func NewLocal(runner *harness.Runner, st *store.Store) *Local {
	return &Local{Runner: runner, Engine: campaign.New(runner, st), Store: st}
}

func (l *Local) Campaign(ctx context.Context, spec campaign.Spec) (*campaign.Report, error) {
	return l.Engine.Run(ctx, spec)
}

func (l *Local) Run(ctx context.Context, spec harness.Spec) (harness.Result, error) {
	if l.Store != nil {
		if rec, ok, _ := l.Store.GetSpec(spec); ok {
			return rec.Result(), nil
		}
	}
	res, err := l.Runner.RunOne(ctx, spec)
	if err != nil {
		return harness.Result{}, err
	}
	if l.Store != nil {
		if _, err := l.Store.PutResult(res); err != nil {
			return harness.Result{}, err
		}
	}
	return res, nil
}

// Store-namespace segments of the explorer's persistence plane. Cells
// are SHARED: one flat namespace keyed by campaign content address, so
// any exploration (any user, any process) whose space intersects
// another's reuses its evaluations. Reports are per-exploration.
const (
	nsExplore = "explore"
	nsCells   = "cells"
	nsReports = "reports"
)

func cellRecordName(campaignKey string) string { return "cell-" + campaignKey }

// RungSchedule returns the per-cell trial budgets the spec's strategy
// evaluates, in order — what a progress display should size the work
// by (cells × rungs).
func RungSchedule(s Spec) []int {
	n := s.Normalize()
	return rungTrials(n.Strategy, n.Trials)
}

// Explorer runs explorations through an Evaluator, persisting cell
// evaluations and reports when a store is attached. Safe for
// concurrent use; the economics counters aggregate across runs.
type Explorer struct {
	ev Evaluator
	st *store.Store

	// OnProgress, if set, observes cell-evaluation completion: done
	// evaluations out of the exploration's total (cached ones count).
	// Called from Run's goroutine; must not call back into the
	// explorer.
	OnProgress func(done, total int)

	evaluated atomic.Uint64 // cells actually simulated
	fromStore atomic.Uint64 // cells served from the explore/cells namespace
	served    atomic.Uint64 // whole reports served from explore/reports
}

// New returns an explorer evaluating through ev, persisting through st
// (nil for memory-only).
func New(ev Evaluator, st *store.Store) *Explorer {
	return &Explorer{ev: ev, st: st}
}

// NewLocalExplorer is the common local wiring: one runner, one store,
// evaluation in process.
func NewLocalExplorer(runner *harness.Runner, st *store.Store) *Explorer {
	return New(NewLocal(runner, st), st)
}

// Counters returns the explorer's economics: cells simulated, cells
// served from the store, and whole reports served without touching a
// single cell. A resumed exploration of a finished space reports
// evaluated == 0 — the assertion the smoke tests make.
func (e *Explorer) Counters() (evaluated, fromStore, reportsServed uint64) {
	return e.evaluated.Load(), e.fromStore.Load(), e.served.Load()
}

func (e *Explorer) cellsNS() (*store.Namespace, error) {
	if e.st == nil {
		return nil, nil
	}
	return e.st.Namespace(nsExplore, nsCells)
}

func (e *Explorer) reportsNS() (*store.Namespace, error) {
	if e.st == nil {
		return nil, nil
	}
	return e.st.Namespace(nsExplore, nsReports)
}

// LoadReport returns the stored report for an exploration key, if the
// explorer has a store and the exploration finished. A stored report
// whose embedded key disagrees with its address is an error, never
// served.
func (e *Explorer) LoadReport(key string) (*FrontierReport, bool, error) {
	ns, err := e.reportsNS()
	if ns == nil || err != nil {
		return nil, false, err
	}
	var rep FrontierReport
	ok, err := ns.GetJSON(key, &rep)
	if !ok || err != nil {
		return nil, false, err
	}
	if rep.Key != key {
		return nil, false, fmt.Errorf("explore: stored report under %s claims key %s", key, rep.Key)
	}
	return &rep, true, nil
}

// loadCells enumerates the shared cell namespace once (Namespace.Each:
// one directory read, ascending order, corrupt records skipped) into a
// map keyed by campaign content address. Only records that
// self-identify — embedded campaign key matching their name — are
// trusted; anything else costs its own re-evaluation, never a wrong
// frontier.
func (e *Explorer) loadCells() (map[string]CellResult, error) {
	ns, err := e.cellsNS()
	if ns == nil || err != nil {
		return nil, err
	}
	out := make(map[string]CellResult)
	_, err = ns.Each(func() any { return new(CellResult) }, func(name string, v any) {
		cr := v.(*CellResult)
		if cellRecordName(cr.CampaignKey) == name {
			out[cr.CampaignKey] = *cr
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateCell computes (or restores) the objective point of cell c at
// the given trial budget. cache is the loadCells snapshot; a miss is
// evaluated through the Evaluator and persisted for every future
// exploration.
func (e *Explorer) evaluateCell(ctx context.Context, spec Spec, c Cell, trials int,
	cache map[string]CellResult, ns *store.Namespace) (CellResult, error) {
	cs := spec.CampaignSpec(c, trials)
	ckey := campaign.KeyOf(cs)
	if cr, ok := cache[ckey]; ok {
		e.fromStore.Add(1)
		return cr, nil
	}

	rep, err := e.ev.Campaign(ctx, cs)
	if err != nil {
		return CellResult{}, fmt.Errorf("explore: cell %s (t=%d): %w", c.Label(), trials, err)
	}
	base := spec.BaseSpec(c)
	res, err := e.ev.Run(ctx, base)
	if err != nil {
		return CellResult{}, fmt.Errorf("explore: cell %s run: %w", c.Label(), err)
	}
	baseRes, err := e.ev.Run(ctx, baselineSpec(base))
	if err != nil {
		return CellResult{}, fmt.Errorf("explore: cell %s baseline: %w", c.Label(), err)
	}

	cr := CellResult{
		Cell: c, Trials: trials, CampaignKey: ckey,
		RawAvailability: rep.Availability,
		VerifiedOK:      rep.VerifiedOK,
		MTTRms:          rep.MTTRms,
		RecoveryP50:     rep.Recovery.P50,
		RecoveryP99:     rep.Recovery.P99,
		Cycles:          res.Cycles,
		BaseCycles:      baseRes.Cycles,
		LogBytes:        res.St.LogBytes,
	}
	if rep.Trials > 0 {
		cr.Availability = rep.Availability * float64(rep.VerifiedOK) / float64(rep.Trials)
	}
	if baseRes.Cycles > 0 {
		if ovh := float64(res.Cycles)/float64(baseRes.Cycles) - 1; ovh > 0 {
			cr.Overhead = ovh
		}
	}
	e.evaluated.Add(1)
	if ns != nil {
		if err := ns.PutJSON(cellRecordName(ckey), &cr); err != nil {
			return CellResult{}, err
		}
		cache[ckey] = cr
	}
	return cr, nil
}

// rungTrials returns the fidelity schedule of the strategy: grid runs
// one full-budget rung; halving seeds every cell at a quarter of the
// budget, then spends the full budget only on the seeding rung's
// Pareto survivors.
func rungTrials(strategy string, trials int) []int {
	if strategy == StrategyGrid {
		return []int{trials}
	}
	seed := trials / 4
	if seed < 1 || seed >= trials {
		return []int{trials}
	}
	return []int{seed, trials}
}

// Run executes the exploration and returns its report. With a store,
// a finished exploration is served from its stored report (Counters
// reportsServed), and every cell evaluation — including the halving
// seeding rung — persists for any future exploration that touches the
// same point.
func (e *Explorer) Run(ctx context.Context, spec Spec) (*FrontierReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	key := KeyOf(spec)
	if rep, ok, err := e.LoadReport(key); err != nil {
		return nil, err
	} else if ok {
		e.served.Add(1)
		e.noteTotal(rep)
		return rep, nil
	}

	cellNS, err := e.cellsNS()
	if err != nil {
		return nil, err
	}
	cache, err := e.loadCells()
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = make(map[string]CellResult)
	}

	cells := spec.Cells()
	rungs := rungTrials(spec.Strategy, spec.Trials)
	// The progress total counts every evaluation the schedule can
	// perform: pruning makes later rungs cheaper, so done may finish
	// below total — the service reports done==total on completion.
	total := len(cells) * len(rungs)
	done := 0
	note := func() {
		done++
		if e.OnProgress != nil {
			e.OnProgress(done, total)
		}
	}

	rep := &FrontierReport{Key: key, Spec: spec, GridTrials: len(cells) * spec.Trials}
	survivors := cells
	var results []CellResult
	for _, rt := range rungs {
		results = results[:0]
		for _, c := range survivors {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cr, err := e.evaluateCell(ctx, spec, c, rt, cache, cellNS)
			if err != nil {
				return nil, err
			}
			results = append(results, cr)
			note()
		}
		rep.Rungs = append(rep.Rungs, RungReport{Trials: rt, Cells: len(survivors),
			TrialsSpent: rt * len(survivors)})
		rep.TrialsSpent += rt * len(survivors)
		if rt != spec.Trials {
			// Prune for the next rung: only cells the low-fidelity rung
			// could not decisively rule out advance. Indices are
			// evaluation order == cell order, so the surviving
			// subsequence is deterministic.
			keep := rungSurvivors(results)
			next := make([]Cell, len(keep))
			for i, idx := range keep {
				next[i] = survivors[idx]
			}
			survivors = next
		}
	}

	rep.Cells = append([]CellResult(nil), results...)
	rep.Frontier = frontier(rep.Cells)
	rep.Dominated = len(cells) - len(rep.Frontier)
	if e.OnProgress != nil {
		e.OnProgress(total, total)
	}

	if ns, err := e.reportsNS(); err != nil {
		return nil, err
	} else if ns != nil {
		if err := ns.PutJSON(key, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// noteTotal reports a fully-served exploration's progress as complete.
func (e *Explorer) noteTotal(rep *FrontierReport) {
	if e.OnProgress == nil {
		return
	}
	total := len(rep.Spec.Cells()) * len(rungTrials(rep.Spec.Strategy, rep.Spec.Trials))
	e.OnProgress(total, total)
}
