package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/workload"
)

// Each figure driver is a thin pair: FigXXSpecs builds the cells the
// figure simulates (baselines included where overheads are reported),
// FigXX prefetches them through the parallel runner and assembles the
// table from the memoized results. Cells shared between figures — the
// "none" baselines above all — are simulated once per process.

// Fig61Specs lists the cells of Figure 6.1.
func Fig61Specs(sc Scale) []Spec {
	var specs []Spec
	for _, app := range parsecApps() {
		specs = append(specs, Spec{App: app, Procs: sc.ProcsSmall, Scheme: "Rebound", Scale: sc})
	}
	return specs
}

// Fig61 reproduces Figure 6.1: the average Interaction Set for
// Checkpointing of Rebound on PARSEC and Apache (paper: 24-processor
// runs), as a percentage of the processor count.
func Fig61(sc Scale) TableData {
	t := TableData{
		Title:   fmt.Sprintf("Figure 6.1: avg ICHK size, PARSEC+Apache, %d procs (Rebound)", sc.ProcsSmall),
		Unit:    "% of processors",
		Columns: []string{"ICHK"},
	}
	for _, res := range mustRunAll(Fig61Specs(sc)) {
		t.Rows = append(t.Rows, TableRow{Label: res.Spec.App,
			Values: []float64{res.St.AvgICHKFraction() * 100}})
	}
	t.Rows = append(t.Rows, avgRow(t.Rows))
	return t
}

// Fig62Specs lists the cells of Figure 6.2 (both machine sizes).
func Fig62Specs(sc Scale) []Spec {
	var specs []Spec
	for _, procs := range []int{sc.ProcsLarge / 2, sc.ProcsLarge} {
		for _, app := range splashApps() {
			specs = append(specs, Spec{App: app, Procs: procs, Scheme: "Rebound", Scale: sc})
		}
	}
	return specs
}

// Fig62 reproduces Figure 6.2: the average ICHK of Rebound on SPLASH-2
// at half- and full-size machines (paper: 32 and 64 processors).
func Fig62(sc Scale) []TableData {
	mustRunAll(Fig62Specs(sc))
	var out []TableData
	for _, procs := range []int{sc.ProcsLarge / 2, sc.ProcsLarge} {
		t := TableData{
			Title:   fmt.Sprintf("Figure 6.2: avg ICHK size, SPLASH-2, %d procs (Rebound)", procs),
			Unit:    "% of processors",
			Columns: []string{"ICHK"},
		}
		for _, app := range splashApps() {
			res := MustRun(Spec{App: app, Procs: procs, Scheme: "Rebound", Scale: sc})
			t.Rows = append(t.Rows, TableRow{Label: app,
				Values: []float64{res.St.AvgICHKFraction() * 100}})
		}
		t.Rows = append(t.Rows, avgRow(t.Rows))
		out = append(out, t)
	}
	return out
}

var fig63Schemes = []string{"Global", "Global_DWB", "Rebound_NoDWB", "Rebound"}

// fig63Groups are the two application groups of Figure 6.3.
func fig63Groups(sc Scale) []struct {
	title string
	apps  []string
	procs int
} {
	return []struct {
		title string
		apps  []string
		procs int
	}{
		{"Figure 6.3(a): checkpoint overhead, SPLASH-2", splashApps(), sc.ProcsLarge},
		{"Figure 6.3(b): checkpoint overhead, PARSEC+Apache", parsecApps(), sc.ProcsSmall},
	}
}

// Fig63Specs lists the cells of Figure 6.3, baselines included.
func Fig63Specs(sc Scale) []Spec {
	var specs []Spec
	for _, g := range fig63Groups(sc) {
		for _, app := range g.apps {
			for _, scheme := range fig63Schemes {
				specs = append(specs, Spec{App: app, Procs: g.procs, Scheme: scheme, Scale: sc})
			}
		}
	}
	return withBaselines(specs)
}

// Fig63 reproduces Figure 6.3: error-free checkpointing overhead of
// Global, Global_DWB, Rebound_NoDWB and Rebound, on SPLASH-2 (large
// machine) and PARSEC/Apache (small machine).
func Fig63(sc Scale) []TableData {
	mustRunAll(Fig63Specs(sc))
	var out []TableData
	for _, g := range fig63Groups(sc) {
		t := TableData{
			Title:   fmt.Sprintf("%s, %d procs", g.title, g.procs),
			Unit:    "% of execution time",
			Columns: fig63Schemes,
		}
		for _, app := range g.apps {
			row := TableRow{Label: app}
			for _, scheme := range fig63Schemes {
				ovh, _, _ := Overhead(Spec{App: app, Procs: g.procs, Scheme: scheme, Scale: sc})
				row.Values = append(row.Values, ovh*100)
			}
			t.Rows = append(t.Rows, row)
		}
		t.Rows = append(t.Rows, avgRow(t.Rows))
		out = append(out, t)
	}
	return out
}

// barrierApps are the barrier-intensive codes Figure 6.4 evaluates.
func barrierApps() []string {
	return []string{"FFT", "Radix", "LU-C", "LU-NC", "Ocean", "Streamcluster"}
}

var fig64Schemes = []string{"Global", "Rebound_NoDWB", "Rebound_NoDWB_Barr", "Rebound", "Rebound_Barr"}

// Fig64Specs lists the cells of Figure 6.4, baselines included.
func Fig64Specs(sc Scale) []Spec {
	var specs []Spec
	for _, app := range barrierApps() {
		for _, scheme := range fig64Schemes {
			specs = append(specs, Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme, Scale: sc})
		}
	}
	return withBaselines(specs)
}

// Fig64 reproduces Figure 6.4: the impact of the Barrier optimisation
// on the barrier-intensive applications.
func Fig64(sc Scale) TableData {
	mustRunAll(Fig64Specs(sc))
	t := TableData{
		Title:   fmt.Sprintf("Figure 6.4: barrier optimisation impact, %d procs", sc.ProcsLarge),
		Unit:    "% of execution time",
		Columns: fig64Schemes,
	}
	for _, app := range barrierApps() {
		row := TableRow{Label: app}
		for _, scheme := range fig64Schemes {
			ovh, _, _ := Overhead(Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme, Scale: sc})
			row.Values = append(row.Values, ovh*100)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, avgRow(t.Rows))
	return t
}

// breakdown computes the Fig 6.5 categories for one run, in
// processor-cycles: measured stalls plus the IPCDelay residual.
func breakdown(res, base Result) (wb, imb, sync, ipc float64) {
	wbc, imbc, syncc := res.St.StallTotals()
	wb, imb, sync = float64(wbc), float64(imbc), float64(syncc)
	// Signed difference: at small scales a scheme run can finish at (or
	// even slightly under) the baseline cycle count.
	delta := int64(res.Cycles) - int64(base.Cycles)
	if delta < 0 {
		delta = 0
	}
	total := float64(delta) * float64(res.Spec.Procs)
	ipc = total - wb - imb - sync
	if ipc < 0 {
		ipc = 0
	}
	return
}

var fig65Schemes = []string{"Global", "Rebound_NoDWB", "Rebound"}

// Fig65Specs lists the cells of Figure 6.5, baselines included.
func Fig65Specs(sc Scale) []Spec {
	var specs []Spec
	for _, app := range splashApps() {
		for _, scheme := range fig65Schemes {
			specs = append(specs, Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme, Scale: sc})
		}
	}
	return withBaselines(specs)
}

// Fig65 reproduces Figure 6.5: the checkpointing-overhead breakdown
// (WBDelay, WBImbalanceDelay, SyncDelay, IPCDelay) of Global,
// Rebound_NoDWB and Rebound, averaged over the SPLASH-2 codes and
// normalised to Global's total.
func Fig65(sc Scale) TableData {
	mustRunAll(Fig65Specs(sc))
	t := TableData{
		Title:   fmt.Sprintf("Figure 6.5: overhead breakdown, SPLASH-2 avg, %d procs (normalised to Global)", sc.ProcsLarge),
		Columns: []string{"WBDelay", "WBImbalance", "SyncDelay", "IPCDelay", "Total"},
	}
	sums := make([][4]float64, len(fig65Schemes))
	for _, app := range splashApps() {
		for i, scheme := range fig65Schemes {
			_, res, base := Overhead(Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme, Scale: sc})
			wb, imb, sync, ipc := breakdown(res, base)
			sums[i][0] += wb
			sums[i][1] += imb
			sums[i][2] += sync
			sums[i][3] += ipc
		}
	}
	globalTotal := sums[0][0] + sums[0][1] + sums[0][2] + sums[0][3]
	if globalTotal == 0 {
		globalTotal = 1
	}
	for i, scheme := range fig65Schemes {
		total := 0.0
		row := TableRow{Label: scheme}
		for _, v := range sums[i] {
			row.Values = append(row.Values, v/globalTotal)
			total += v / globalTotal
		}
		row.Values = append(row.Values, total)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig66Apps is the SPLASH-2 subset used for the scalability sweep (the
// full suite at three machine sizes would triple the figure's runtime
// for the same trend).
func fig66Apps() []string {
	return []string{"Barnes", "FFT", "LU-C", "Ocean", "Water-Nsq", "Raytrace"}
}

// fig66Counts are the processor counts of the scalability sweep.
func fig66Counts(sc Scale) []int {
	var out []int
	for _, n := range []int{sc.ProcsLarge / 4, sc.ProcsLarge / 2, sc.ProcsLarge} {
		if n >= 2 {
			out = append(out, n)
		}
	}
	return out
}

// Fig66Specs lists the cells of Figure 6.6, baselines included: the
// same scheme cells whose recovery latency Fig 6.6(c) measures.
func Fig66Specs(sc Scale) []Spec {
	return withBaselines(fig66RecoverySpecs(sc))
}

// fig66RecoverySpecs lists the scheme cells whose recovery latency
// Figure 6.6(c) measures (a separate fault-injection run per cell).
func fig66RecoverySpecs(sc Scale) []Spec {
	var specs []Spec
	for _, n := range fig66Counts(sc) {
		for _, scheme := range fig65Schemes {
			for _, app := range fig66Apps() {
				specs = append(specs, Spec{App: app, Procs: n, Scheme: scheme, Scale: sc})
			}
		}
	}
	return specs
}

// Fig66 reproduces Figure 6.6: checkpointing overhead (a), energy
// increase due to checkpointing (b) and fault recovery latency (c) for
// SPLASH-2 as the processor count grows (paper: 16/32/64).
func Fig66(sc Scale) []TableData {
	mustRunAll(Fig66Specs(sc))
	Default().PrefetchRecovery(context.Background(), fig66RecoverySpecs(sc)...)
	schemes := fig65Schemes
	ovhT := TableData{Title: "Figure 6.6(a): checkpoint overhead vs processor count (SPLASH-2 avg)",
		Unit: "% of execution time", Columns: schemes}
	engT := TableData{Title: "Figure 6.6(b): energy increase due to checkpointing vs processor count",
		Unit: "% over no-checkpointing", Columns: schemes}
	recT := TableData{Title: "Figure 6.6(c): fault recovery latency vs processor count",
		Unit: "µs at 1 GHz", Columns: schemes}
	for _, n := range fig66Counts(sc) {
		ovhRow := TableRow{Label: fmt.Sprintf("%d procs", n)}
		engRow := ovhRow
		recRow := ovhRow
		ovhRow.Values = nil
		engRow.Values = nil
		recRow.Values = nil
		for _, scheme := range schemes {
			var ovhSum, engSum, recSum float64
			for _, app := range fig66Apps() {
				spec := Spec{App: app, Procs: n, Scheme: scheme, Scale: sc}
				ovh, res, base := Overhead(spec)
				ovhSum += ovh
				engSum += (res.Power.TotalJ/base.Power.TotalJ - 1) * 100
				recSum += Default().RecoveryLatency(spec)
			}
			k := float64(len(fig66Apps()))
			ovhRow.Values = append(ovhRow.Values, ovhSum/k*100)
			engRow.Values = append(engRow.Values, engSum/k)
			recRow.Values = append(recRow.Values, recSum/k*1000) // ms -> µs
		}
		ovhT.Rows = append(ovhT.Rows, ovhRow)
		engT.Rows = append(engT.Rows, engRow)
		recT.Rows = append(recT.Rows, recRow)
	}
	return []TableData{ovhT, engT, recT}
}

// RecoveryLatencyMS measures the recovery latency of a transient fault
// injected right before a checkpoint would start (the Fig 6.6c setup):
// milliseconds from detection to all processors resumed. This is the
// uncached primitive; Runner.RecoveryLatency memoizes it.
func RecoveryLatencyMS(spec Spec) float64 {
	m, err := Build(spec)
	if err != nil {
		panic(err)
	}
	inj := fault.NewInjector(m, spec.Scale.Seed)
	// Run to just before the end of a checkpoint interval.
	m.Run(uint64(spec.Procs) * spec.Scale.Interval * 9 / 10)
	inj.InjectAt(m.Now()+1, 0, m.Cfg.DetectLatency/2)
	// Run in short slices until the recovery is recorded.
	for i := 0; i < 200 && len(m.St.Rollbacks) == 0; i++ {
		m.RunCycles(100_000)
	}
	if len(m.St.Rollbacks) == 0 {
		return 0
	}
	rb := m.St.Rollbacks[0]
	return float64(rb.End-rb.Start) / 1e6 // cycles at 1 GHz -> ms
}

// fig67Apps are codes with relatively small interaction sets (§6.4).
func fig67Apps() []string {
	return []string{"Blackscholes", "Apache", "Water-Sp", "Fluidanimate", "Ferret"}
}

// Fig67Specs lists the cells of Figure 6.7.
func Fig67Specs(sc Scale) []Spec {
	var specs []Spec
	for _, app := range fig67Apps() {
		for _, scheme := range []string{"Global", "Rebound"} {
			specs = append(specs, Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme,
				Scale: sc, IOForce: sc.Interval / 2})
		}
	}
	return specs
}

// Fig67 reproduces Figure 6.7: one of the processors initiates a
// checkpoint (as if performing output I/O) every half checkpoint
// interval; the table reports the resulting average checkpoint
// interval per processor for Global-I/O and Rebound-I/O.
func Fig67(sc Scale) TableData {
	mustRunAll(Fig67Specs(sc))
	t := TableData{
		Title: fmt.Sprintf("Figure 6.7: avg checkpoint interval under forced I/O, %d procs (interval=%d instr)",
			sc.ProcsLarge, sc.Interval),
		Unit:    "instructions per processor",
		Columns: []string{"Global-I/O", "Rebound-I/O"},
	}
	for _, app := range fig67Apps() {
		row := TableRow{Label: app}
		for _, scheme := range []string{"Global", "Rebound"} {
			res := MustRun(Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme,
				Scale: sc, IOForce: sc.Interval / 2})
			row.Values = append(row.Values, res.St.AvgCheckpointIntervalInstr())
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, avgRow(t.Rows))
	return t
}

// Fig68Specs lists the cells of Figure 6.8, baselines included. They
// are exactly Figure 6.5's: same schemes, same apps, same machine.
func Fig68Specs(sc Scale) []Spec { return Fig65Specs(sc) }

// Fig68 reproduces Figure 6.8: estimated on-chip power of Global,
// Rebound_NoDWB and Rebound on SPLASH-2, plus the ED² comparison the
// paper quotes (§6.5).
func Fig68(sc Scale) TableData {
	mustRunAll(Fig68Specs(sc))
	schemes := fig65Schemes
	t := TableData{
		Title:   fmt.Sprintf("Figure 6.8: estimated power, SPLASH-2 avg, %d procs", sc.ProcsLarge),
		Columns: []string{"Power (W)", "vs Global (%)", "ED2 vs Global (%)"},
	}
	type acc struct{ p, ed2 float64 }
	sums := make([]acc, len(schemes))
	for _, app := range splashApps() {
		for i, scheme := range schemes {
			_, res, _ := Overhead(Spec{App: app, Procs: sc.ProcsLarge, Scheme: scheme, Scale: sc})
			sums[i].p += res.Power.AvgPowerW
			sums[i].ed2 += res.Power.ED2
		}
	}
	k := float64(len(splashApps()))
	for i, scheme := range schemes {
		t.Rows = append(t.Rows, TableRow{Label: scheme, Values: []float64{
			sums[i].p / k,
			(sums[i].p/sums[0].p - 1) * 100,
			(sums[i].ed2/sums[0].ed2 - 1) * 100,
		}})
	}
	return t
}

// Table61Specs lists the cells of Table 6.1.
func Table61Specs(sc Scale) []Spec {
	var specs []Spec
	for _, app := range append(splashApps(), parsecApps()...) {
		procs := sc.ProcsLarge
		if p := workloadSuite(app); p == "parsec" || p == "server" {
			procs = sc.ProcsSmall
		}
		specs = append(specs, Spec{App: app, Procs: procs, Scheme: "Rebound", Scale: sc})
	}
	return specs
}

// Table61 reproduces Table 6.1: per application, the ICHK increase due
// to WSIG false positives, the maximum log space per checkpoint
// interval, and the coherence-message increase from maintaining LW-ID
// and the Dep registers. SPLASH-2 runs on the large machine,
// PARSEC/Apache on the small one, as in the paper.
func Table61(sc Scale) TableData {
	t := TableData{
		Title:   "Table 6.1: Rebound characterisation",
		Columns: []string{"ICHK FP incr (%)", "Log size (MB)", "Msg incr (%)"},
	}
	for _, res := range mustRunAll(Table61Specs(sc)) {
		t.Rows = append(t.Rows, TableRow{Label: res.Spec.App, Values: []float64{
			res.St.ICHKFalsePositiveIncreasePct(),
			float64(res.St.LogHighWaterBytes) / (1 << 20),
			res.St.MessageIncreasePct(),
		}})
	}
	t.Rows = append(t.Rows, avgRow(t.Rows))
	return t
}

func workloadSuite(app string) string {
	if p := workload.ByName(app); p != nil {
		return p.Suite
	}
	return "splash2"
}

// figureSpecBuilders maps the canonical figure identifiers to their
// spec builders. Keys are the short forms cmd/figures accepts; see
// FigureSpecs for the aliases the service accepts.
var figureSpecBuilders = map[string]func(Scale) []Spec{
	"6.1":  Fig61Specs,
	"6.2":  Fig62Specs,
	"6.3":  Fig63Specs,
	"6.4":  Fig64Specs,
	"6.5":  Fig65Specs,
	"6.6":  Fig66Specs,
	"6.7":  Fig67Specs,
	"6.8":  Fig68Specs,
	"t6.1": Table61Specs,
	"all":  SweepSpecs,
}

// FigureNames lists the identifiers FigureSpecs accepts (short forms),
// sorted for error messages. Derived from the builder map so the two
// cannot drift.
func FigureNames() []string {
	names := make([]string, 0, len(figureSpecBuilders))
	for name := range figureSpecBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FigureSpecs resolves a figure name to the cells it simulates
// (baselines included where the figure reports overheads). It accepts
// the short identifiers of cmd/figures ("6.2", "t6.1", "all") and the
// service's prefixed aliases ("fig6.2", "table6.1", "sweep"),
// case-insensitively.
func FigureSpecs(name string, sc Scale) ([]Spec, error) {
	id := strings.ToLower(strings.TrimSpace(name))
	id = strings.TrimPrefix(id, "fig")
	id = strings.TrimPrefix(id, "ure") // "figure6.2"
	id = strings.TrimSpace(strings.TrimPrefix(id, "."))
	if strings.HasPrefix(id, "table") {
		id = "t" + strings.TrimPrefix(id, "table")
	}
	if id == "sweep" {
		id = "all"
	}
	if b, ok := figureSpecBuilders[id]; ok {
		return b(sc), nil
	}
	return nil, fmt.Errorf("harness: unknown figure %q (valid: %s)",
		name, strings.Join(FigureNames(), " "))
}

// SweepSpecs is the union of every figure's and Table 6.1's cells,
// deduplicated: the full evaluation-chapter workload that a default
// `cmd/figures` invocation simulates. Exported so tooling can size or
// batch the whole sweep; the runner benchmarks in bench_test.go use a
// smaller fixed subset to keep iterations affordable.
func SweepSpecs(sc Scale) []Spec {
	var all []Spec
	all = append(all, Fig61Specs(sc)...)
	all = append(all, Fig62Specs(sc)...)
	all = append(all, Fig63Specs(sc)...)
	all = append(all, Fig64Specs(sc)...)
	all = append(all, Fig65Specs(sc)...)
	all = append(all, Fig66Specs(sc)...)
	all = append(all, Fig67Specs(sc)...)
	all = append(all, Fig68Specs(sc)...)
	all = append(all, Table61Specs(sc)...)
	return withBaselines(all) // withBaselines also deduplicates
}
