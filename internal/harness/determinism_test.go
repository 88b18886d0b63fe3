package harness

import (
	"context"
	"testing"
)

// The determinism suite proves the runner's central claim: a cell's
// Result is a pure function of its Spec, so parallel execution is
// byte-identical to serial execution. Comparisons go through
// stats.Snapshot, which serialises every counter and record of a run.

// determinismSpecs is a small cross-scheme batch with shared baselines
// and a forced-I/O cell — the cases where hidden shared state between
// concurrently running machines would show up first.
func determinismSpecs() []Spec {
	var specs []Spec
	for _, app := range []string{"FFT", "Volrend", "Apache"} {
		for _, scheme := range []string{"none", "Global", "Rebound"} {
			specs = append(specs, Spec{App: app, Procs: 4, Scheme: scheme, Scale: Quick})
		}
	}
	specs = append(specs, Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: Quick,
		IOForce: Quick.Interval / 2})
	return specs
}

func mustSnapshot(t *testing.T, res Result) string {
	t.Helper()
	if res.St == nil {
		t.Fatal("result has no stats")
	}
	return res.St.Snapshot()
}

func TestRunTwiceIsIdentical(t *testing.T) {
	// Two independent simulations of the same fixed Quick spec (no
	// cache between them) must agree on every counter: any hidden
	// global state in internal/machine or internal/core would diverge.
	spec := Spec{App: "Ocean", Procs: 4, Scheme: "Rebound", Scale: Quick}
	a, err := runSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.St == b.St {
		t.Fatal("runSpec returned a shared Stats; want independent simulations")
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("cycle counts differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if mustSnapshot(t, a) != mustSnapshot(t, b) {
		t.Fatal("two runs of the same spec produced different stats")
	}
	if a.Power != b.Power {
		t.Fatalf("power reports differ: %+v vs %+v", a.Power, b.Power)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Fresh runners on both sides so every cell is actually simulated
	// under each execution mode, then compared byte-for-byte.
	specs := determinismSpecs()
	par, err := NewRunner(0).Run(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := NewRunner(1).RunSerial(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(ser) {
		t.Fatalf("result counts differ: %d vs %d", len(par), len(ser))
	}
	for i := range specs {
		if par[i].Cycles != ser[i].Cycles {
			t.Errorf("%s: cycles %d (parallel) vs %d (serial)",
				specs[i].Key(), par[i].Cycles, ser[i].Cycles)
			continue
		}
		if mustSnapshot(t, par[i]) != mustSnapshot(t, ser[i]) {
			t.Errorf("%s: parallel stats differ from serial", specs[i].Key())
		}
		if par[i].Power != ser[i].Power {
			t.Errorf("%s: power reports differ", specs[i].Key())
		}
	}
}

func TestParallelRunIsInternallyStable(t *testing.T) {
	// The same batch through two parallel runners: scheduling order
	// differs between the two executions, results must not.
	specs := determinismSpecs()
	a, err := NewRunner(0).Run(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(3).Run(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if mustSnapshot(t, a[i]) != mustSnapshot(t, b[i]) {
			t.Errorf("%s: results depend on worker-pool size", specs[i].Key())
		}
	}
}
