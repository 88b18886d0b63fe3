package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Golden structure tests: every figure/table driver must emit the
// expected row and column labels, with finite values (non-negative
// where the metric is a magnitude). Values themselves are scale- and
// seed-dependent; the shape is the contract.

func withAverage(labels []string) []string { return append(labels, "Average") }

func procLabels(sc Scale) []string {
	var out []string
	for _, n := range fig66Counts(sc) {
		out = append(out, fmt.Sprintf("%d procs", n))
	}
	return out
}

func TestFiguresGolden(t *testing.T) {
	sc := Quick
	type tableExp struct {
		titlePart string
		columns   []string
		labels    []string
		nonneg    bool
	}
	cases := []struct {
		name   string
		run    func(Scale) []TableData
		heavy  bool
		tables []tableExp
		check  func(*testing.T, []TableData) // optional value assertions
	}{
		{
			name: "Fig6.1",
			run:  func(s Scale) []TableData { return []TableData{Fig61(s)} },
			tables: []tableExp{{"Figure 6.1", []string{"ICHK"},
				withAverage(parsecApps()), true}},
		},
		{
			name: "Fig6.2",
			run:  Fig62,
			tables: []tableExp{
				{"Figure 6.2", []string{"ICHK"}, withAverage(splashApps()), true},
				{"Figure 6.2", []string{"ICHK"}, withAverage(splashApps()), true},
			},
		},
		{
			name:  "Fig6.3",
			run:   Fig63,
			heavy: true,
			tables: []tableExp{
				{"Figure 6.3(a)", fig63Schemes, withAverage(splashApps()), true},
				{"Figure 6.3(b)", fig63Schemes, withAverage(parsecApps()), true},
			},
		},
		{
			name:  "Fig6.4",
			run:   func(s Scale) []TableData { return []TableData{Fig64(s)} },
			heavy: true,
			tables: []tableExp{{"Figure 6.4", fig64Schemes,
				withAverage(barrierApps()), true}},
		},
		{
			name:  "Fig6.5",
			run:   func(s Scale) []TableData { return []TableData{Fig65(s)} },
			heavy: true,
			tables: []tableExp{{"Figure 6.5",
				[]string{"WBDelay", "WBImbalance", "SyncDelay", "IPCDelay", "Total"},
				fig65Schemes, true}},
		},
		{
			name:  "Fig6.6",
			run:   Fig66,
			heavy: true,
			tables: []tableExp{
				{"Figure 6.6(a)", fig65Schemes, procLabels(sc), true},
				{"Figure 6.6(b)", fig65Schemes, procLabels(sc), false},
				{"Figure 6.6(c)", fig65Schemes, procLabels(sc), true},
			},
			check: func(t *testing.T, tables []TableData) {
				// Recovery takes kcycles, so in µs at 1 GHz every cell
				// reads as at least one whole unit.
				for _, row := range tables[2].Rows {
					for ci, v := range row.Values {
						if v < 1.0 {
							t.Errorf("Figure 6.6(c) row %q %s = %v µs, want >= 1.0",
								row.Label, tables[2].Columns[ci], v)
						}
					}
				}
			},
		},
		{
			name: "Fig6.7",
			run:  func(s Scale) []TableData { return []TableData{Fig67(s)} },
			tables: []tableExp{{"Figure 6.7",
				[]string{"Global-I/O", "Rebound-I/O"}, withAverage(fig67Apps()), true}},
		},
		{
			name:  "Fig6.8",
			run:   func(s Scale) []TableData { return []TableData{Fig68(s)} },
			heavy: true,
			tables: []tableExp{{"Figure 6.8",
				[]string{"Power (W)", "vs Global (%)", "ED2 vs Global (%)"},
				fig65Schemes, false}},
		},
		{
			name:  "Table6.1",
			run:   func(s Scale) []TableData { return []TableData{Table61(s)} },
			heavy: true,
			tables: []tableExp{{"Table 6.1",
				[]string{"ICHK FP incr (%)", "Log size (MB)", "Msg incr (%)"},
				withAverage(append(splashApps(), parsecApps()...)), true}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy sweep skipped in -short mode")
			}
			tables := tc.run(sc)
			if len(tables) != len(tc.tables) {
				t.Fatalf("%d tables, want %d", len(tables), len(tc.tables))
			}
			for ti, td := range tables {
				exp := tc.tables[ti]
				if !strings.Contains(td.Title, exp.titlePart) {
					t.Errorf("table %d title %q missing %q", ti, td.Title, exp.titlePart)
				}
				if len(td.Columns) != len(exp.columns) {
					t.Fatalf("table %d: %d columns, want %d", ti, len(td.Columns), len(exp.columns))
				}
				for ci, c := range exp.columns {
					if td.Columns[ci] != c {
						t.Errorf("table %d column %d = %q, want %q", ti, ci, td.Columns[ci], c)
					}
				}
				if len(td.Rows) != len(exp.labels) {
					t.Fatalf("table %d: %d rows, want %d", ti, len(td.Rows), len(exp.labels))
				}
				for ri, row := range td.Rows {
					if row.Label != exp.labels[ri] {
						t.Errorf("table %d row %d label = %q, want %q", ti, ri, row.Label, exp.labels[ri])
					}
					if len(row.Values) != len(td.Columns) {
						t.Fatalf("table %d row %q: %d values for %d columns",
							ti, row.Label, len(row.Values), len(td.Columns))
					}
					for vi, v := range row.Values {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("table %d row %q value %d not finite: %v", ti, row.Label, vi, v)
						}
						if exp.nonneg && v < 0 {
							t.Errorf("table %d row %q value %d negative: %v", ti, row.Label, vi, v)
						}
					}
				}
				// Rendering keeps every row and column.
				out := td.Format()
				for _, c := range td.Columns {
					if !strings.Contains(out, c) {
						t.Errorf("Format lost column %q", c)
					}
				}
				for _, r := range td.Rows {
					if !strings.Contains(out, r.Label) {
						t.Errorf("Format lost row %q", r.Label)
					}
				}
			}
			if tc.check != nil {
				tc.check(t, tables)
			}
		})
	}
}

func TestAblationSpecsGoThroughRunner(t *testing.T) {
	if len(AblationWSIGSpecs(Quick, "Water-Nsq")) != len(ablationWSIGBits) {
		t.Fatal("WSIG sweep spec count mismatch")
	}
	// Dep-set sweep shares one baseline across knob settings.
	specs := AblationDepSetsSpecs(Quick, "Uniform")
	var baselines int
	for _, s := range specs {
		if s.Scheme == "none" {
			baselines++
			if s.DepSets != 0 || s.WSIGBits != 0 || s.LogAllWB {
				t.Fatalf("baseline spec carries hardware knobs: %s", s.Key())
			}
		}
	}
	if baselines != 1 {
		t.Fatalf("dep-set sweep has %d baselines, want 1 shared", baselines)
	}
}

func TestSweepSpecsDeduplicated(t *testing.T) {
	specs := SweepSpecs(Quick)
	if len(specs) == 0 {
		t.Fatal("empty sweep")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		k := s.Key()
		if seen[k] {
			t.Fatalf("duplicate cell in sweep: %s", k)
		}
		seen[k] = true
	}
	// The shared "none" baselines must appear exactly once each.
	var nones int
	for _, s := range specs {
		if s.Scheme == "none" {
			nones++
		}
	}
	if nones == 0 {
		t.Fatal("sweep has no baselines")
	}
	t.Logf("sweep: %d distinct cells (%d baselines)", len(specs), nones)
}
