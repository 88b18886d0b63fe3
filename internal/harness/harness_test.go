package harness

import (
	"context"
	"strings"
	"testing"
)

func TestSchemeForAndScaleByName(t *testing.T) {
	for _, name := range []string{"none", "Global", "Global_DWB", "Rebound",
		"Rebound_NoDWB", "Rebound_Barr", "Rebound_NoDWB_Barr", "Rebound_2L"} {
		if _, err := SchemeFor(name); err != nil {
			t.Fatalf("SchemeFor(%q): %v", name, err)
		}
	}
	if _, err := SchemeFor("bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if sc, err := ScaleByName("quick"); err != nil || sc.Name != "quick" {
		t.Fatal("quick scale lookup failed")
	}
	if sc, err := ScaleByName("full"); err != nil || sc.ProcsLarge != 64 {
		t.Fatal("full scale lookup failed")
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestRunRejectsUnknownApp(t *testing.T) {
	if _, err := RunOne(context.Background(), Spec{App: "NoSuchApp", Procs: 4, Scheme: "Rebound", Scale: Quick}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Run(nil, Spec{App: "NoSuchApp", Procs: 4, Scheme: "Rebound", Scale: Quick}); err == nil {
		t.Fatal("unknown app accepted by batch Run")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{App: "FFT", Procs: 8, Scheme: "Rebound", Scale: Quick}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Shards: a power of two in [0, MaxShards].
	for _, sh := range []int{0, 1, 2, MaxShards} {
		s := good
		s.Shards = sh
		if err := s.Validate(); err != nil {
			t.Fatalf("shards=%d rejected: %v", sh, err)
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown app", func(s *Spec) { s.App = "NoSuchApp" }, "unknown application"},
		{"unknown scheme", func(s *Spec) { s.Scheme = "bogus" }, "unknown scheme"},
		{"zero procs", func(s *Spec) { s.Procs = 0 }, "out of range"},
		{"huge procs", func(s *Spec) { s.Procs = MaxProcs + 1 }, "out of range"},
		{"zero budget", func(s *Spec) { s.Scale.InstrPerProc = 0 }, "instruction budget"},
		{"zero interval", func(s *Spec) { s.Scale.Interval = 0 }, "checkpoint interval"},
		{"negative knob", func(s *Spec) { s.WSIGBits = -1 }, "negative hardware knob"},
		{"huge wsig", func(s *Spec) { s.WSIGBits = MaxWSIGBits + 1 }, "wsigbits"},
		{"one depset", func(s *Spec) { s.DepSets = 1 }, "depsets"},
		{"huge depsets", func(s *Spec) { s.DepSets = MaxDepSets + 1 }, "depsets"},
		{"huge ioforce", func(s *Spec) { s.IOForce = MaxIOForce + 1 }, "ioforce"},
		{"negative shards", func(s *Spec) { s.Shards = -1 }, "shards"},
		{"shards not a power of two", func(s *Spec) { s.Shards = 3 }, "shards"},
		{"huge shards", func(s *Spec) { s.Shards = 2 * MaxShards }, "shards"},
	}
	for _, tc := range cases {
		s := good
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The app/scheme errors teach the caller the valid vocabulary
	// (cmd/reboundsim and the service surface them verbatim).
	bad := good
	bad.Scheme = "bogus"
	if err := bad.Validate(); !strings.Contains(err.Error(), "Rebound_NoDWB_Barr") {
		t.Fatalf("scheme error does not list valid schemes: %v", err)
	}
}

func TestFigureSpecsRegistry(t *testing.T) {
	for _, alias := range []string{"6.2", "fig6.2", "FIG6.2", "figure6.2"} {
		specs, err := FigureSpecs(alias, Quick)
		if err != nil {
			t.Fatalf("FigureSpecs(%q): %v", alias, err)
		}
		if len(specs) != len(Fig62Specs(Quick)) {
			t.Fatalf("FigureSpecs(%q) returned %d specs, want %d",
				alias, len(specs), len(Fig62Specs(Quick)))
		}
	}
	if _, err := FigureSpecs("table6.1", Quick); err != nil {
		t.Fatalf("table6.1 alias: %v", err)
	}
	if specs, _ := FigureSpecs("all", Quick); len(specs) != len(SweepSpecs(Quick)) {
		t.Fatal("all alias does not cover the full sweep")
	}
	if _, err := FigureSpecs("6.99", Quick); err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, name := range FigureNames() {
		if _, err := FigureSpecs(name, Quick); err != nil {
			t.Fatalf("FigureNames entry %q not resolvable: %v", name, err)
		}
	}
}

func TestOverheadPositiveAndOrdered(t *testing.T) {
	sc := Quick
	spec := func(scheme string) Spec {
		return Spec{App: "FFT", Procs: sc.ProcsLarge, Scheme: scheme, Scale: sc}
	}
	og, _, _ := Overhead(spec("Global"))
	or, _, _ := Overhead(spec("Rebound"))
	t.Logf("FFT@%d: Global=%.1f%% Rebound=%.1f%%", sc.ProcsLarge, og*100, or*100)
	if og <= 0 {
		t.Fatal("Global overhead should be positive")
	}
	if or >= og {
		t.Fatalf("Rebound (%.3f) not cheaper than Global (%.3f)", or, og)
	}
}

func TestFig61ShapesAndFormat(t *testing.T) {
	td := Fig61(Quick)
	if len(td.Rows) != 6 { // 4 PARSEC + Apache + Average
		t.Fatalf("rows = %d, want 6", len(td.Rows))
	}
	byName := map[string]float64{}
	for _, r := range td.Rows {
		byName[r.Label] = r.Values[0]
		if r.Values[0] < 0 || r.Values[0] > 100 {
			t.Fatalf("%s ICHK %.1f%% out of range", r.Label, r.Values[0])
		}
	}
	// Communication-local codes must have small interaction sets;
	// barriered Streamcluster a large one (the Fig 6.1 shape).
	if byName["Blackscholes"] >= byName["Streamcluster"] {
		t.Fatalf("Blackscholes (%.0f%%) should be below Streamcluster (%.0f%%)",
			byName["Blackscholes"], byName["Streamcluster"])
	}
	out := td.Format()
	if !strings.Contains(out, "Apache") || !strings.Contains(out, "Average") {
		t.Fatal("Format lost rows")
	}
}

func TestFig67Ordering(t *testing.T) {
	sc := Quick
	td := Fig67(sc)
	avg := td.Rows[len(td.Rows)-1]
	global, rebound := avg.Values[0], avg.Values[1]
	t.Logf("forced-I/O interval: Global=%.0f Rebound=%.0f", global, rebound)
	if rebound <= global {
		t.Fatal("Rebound should sustain a longer checkpoint interval under forced I/O")
	}
}

func TestRecoveryLatencyMeasured(t *testing.T) {
	ms := RecoveryLatencyMS(Spec{App: "Barnes", Procs: 8, Scheme: "Rebound", Scale: Quick})
	if ms <= 0 {
		t.Fatal("recovery latency not measured")
	}
	t.Logf("recovery latency: %.3f ms", ms)
}

func TestTable61SingleApp(t *testing.T) {
	res := MustRun(Spec{App: "Water-Sp", Procs: 8, Scheme: "Rebound", Scale: Quick})
	if res.St.LogHighWaterBytes == 0 {
		t.Fatal("no log high-water recorded")
	}
	if res.St.CohMessages == 0 || res.St.DepMessages == 0 {
		t.Fatal("message accounting missing")
	}
	if res.St.MessageIncreasePct() <= 0 || res.St.MessageIncreasePct() > 50 {
		t.Fatalf("message increase %.1f%% implausible", res.St.MessageIncreasePct())
	}
}

func TestBaselineCaching(t *testing.T) {
	spec := Spec{App: "Volrend", Procs: 4, Scheme: "Rebound", Scale: Quick}
	a := Baseline(spec)
	b := Baseline(spec)
	if a.St != b.St {
		t.Fatal("baseline not cached")
	}
}
