package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/store"
)

// testScale keeps campaign trials cheap: small budget, short intervals,
// short detection latency, same dirty-lines-per-interval regime.
var testScale = harness.Scale{Name: "camp-test", ProcsLarge: 8, ProcsSmall: 4,
	InstrPerProc: 30_000, Interval: 8_000, DetectLatency: 2_000, Seed: 1}

func testSpec(trials int) Spec {
	return Spec{
		Base:   harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: testScale},
		Trials: trials,
		Faults: 2,
		Window: 60_000,
		Seed:   7,
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSpecValidate(t *testing.T) {
	good := testSpec(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Trials = 0 },
		func(s *Spec) { s.Trials = MaxTrials + 1 },
		func(s *Spec) { s.Faults = 0 },
		func(s *Spec) { s.Faults = MaxFaults + 1 },
		func(s *Spec) { s.Window = MaxWindow + 1 },
		func(s *Spec) { s.DetectLatency = uint64(testScale.DetectLatency) + 1 },
		func(s *Spec) { s.Base.App = "NoSuchApp" },
	}
	for i, mutate := range cases {
		s := testSpec(4)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid spec", i)
		}
	}
}

func TestTrialSeedsDistinctAndStable(t *testing.T) {
	spec := testSpec(64)
	seen := make(map[uint64]int)
	for i := 0; i < spec.Trials; i++ {
		s := TrialSeed(spec, i)
		if s == 0 {
			t.Fatalf("trial %d derived seed 0", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %#x", j, i, s)
		}
		seen[s] = i
		if s != TrialSeed(spec, i) {
			t.Fatalf("trial %d seed not stable", i)
		}
	}
	other := spec
	other.Seed++
	if TrialSeed(spec, 0) == TrialSeed(other, 0) {
		t.Fatal("campaign seed does not reach trial seeds")
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	spec := testSpec(1)
	a, err := RunTrial(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A second, independent execution must not differ in a single field.
	b, err := RunTrial(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("trial 0 differs across two runs:\n%s\n%s", aj, bj)
	}
	if !a.VerifyOK {
		t.Fatalf("trial 0 failed verification: %s", a.VerifyError)
	}
	if a.Injected != spec.Faults || a.Detected != spec.Faults {
		t.Fatalf("injected=%d detected=%d, want %d", a.Injected, a.Detected, spec.Faults)
	}
}

// TestCampaignByteIdentity is the acceptance bar of the campaign
// subsystem: a >=200-trial campaign produces byte-identical Report JSON
// across BOTH trial executors (the build-and-warm reference and the
// machine snapshot/restore engine) and across serial, parallel and
// interrupt-then-resume executions, with every trial passing the
// poison verifier.
func TestCampaignByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("200-trial campaign skipped in -short mode")
	}
	spec := testSpec(200)

	// Reference executor: every trial builds and warms its own machine,
	// in index order.
	refTrials := make([]Trial, spec.Trials)
	for i := range refTrials {
		tr, err := RunTrial(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		refTrials[i] = tr
	}
	fresh := buildReport(spec, refTrials)

	ser, err := New(harness.NewRunner(1), nil).RunSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(harness.NewRunner(0), nil).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted execution: cancel the feed after ~a quarter of the
	// trials have completed (in-flight trials still finish and persist),
	// then resume in a fresh engine against the same store.
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := New(harness.NewRunner(0), st)
	var mu sync.Mutex
	first.OnProgress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done >= total/4 {
			cancel()
		}
	}
	if _, err := first.Run(ctx, spec); err == nil {
		t.Fatal("interrupted campaign reported success")
	}
	ns, err := st.Namespace("campaigns", KeyOf(spec))
	if err != nil {
		t.Fatal(err)
	}
	names, err := ns.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || len(names) >= spec.Trials {
		t.Fatalf("interrupt persisted %d trials, want partial progress", len(names))
	}
	res, err := New(harness.NewRunner(0), st).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	fj, sj, pj, rj := reportJSON(t, fresh), reportJSON(t, ser), reportJSON(t, par), reportJSON(t, res)
	if !bytes.Equal(fj, sj) {
		t.Error("snapshot-engine report differs from the fresh-build reference")
	}
	if !bytes.Equal(sj, pj) {
		t.Error("parallel report differs from serial")
	}
	if !bytes.Equal(sj, rj) {
		t.Error("resumed report differs from serial")
	}
	if ser.Trials != spec.Trials || ser.VerifiedOK != spec.Trials {
		t.Fatalf("verified %d/%d trials; the recovery guarantee must hold on every trial",
			ser.VerifiedOK, ser.Trials)
	}
	if ser.Rollbacks == 0 || ser.FaultsInjected != spec.Trials*spec.Faults {
		t.Fatalf("campaign exercised no faults: %d rollbacks, %d injected",
			ser.Rollbacks, ser.FaultsInjected)
	}
	if ser.MTTRms <= 0 || ser.Availability <= 0 || ser.Availability > 1 {
		t.Fatalf("implausible aggregate: MTTR=%v ms availability=%v", ser.MTTRms, ser.Availability)
	}
}

// TestTrialRunnerMatchesFreshBuildAcrossSchemes pins the executor
// equivalence per scheme: for every registered scheme, trials run
// through the snapshot engine (including a machine reused across
// trials) are byte-identical to the build-and-warm reference.
func TestTrialRunnerMatchesFreshBuildAcrossSchemes(t *testing.T) {
	for _, scheme := range harness.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			spec := testSpec(3)
			spec.Base.Scheme = scheme
			tr := NewTrialRunner(spec)
			for i := 0; i < spec.Trials; i++ {
				want, err := RunTrial(spec, i)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tr.Run(i)
				if err != nil {
					t.Fatal(err)
				}
				wj, _ := json.Marshal(want)
				gj, _ := json.Marshal(got)
				if !bytes.Equal(wj, gj) {
					t.Fatalf("trial %d: snapshot engine diverged from fresh build\n got: %s\nwant: %s", i, gj, wj)
				}
			}
		})
	}
}

func TestFinishedCampaignServedFromStoreWithoutSimulating(t *testing.T) {
	spec := testSpec(6)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := New(harness.NewRunner(0), st)
	rep, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// A second engine on the same store must answer from the stored
	// report: a canceled context proves no trial was (re)started.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	again, err := New(harness.NewRunner(0), st).Run(ctx, spec)
	if err != nil {
		t.Fatalf("stored campaign re-simulated: %v", err)
	}
	if !bytes.Equal(reportJSON(t, rep), reportJSON(t, again)) {
		t.Fatal("stored report differs from the freshly computed one")
	}
	if got, ok, err := e.LoadReport(KeyOf(spec)); err != nil || !ok {
		t.Fatalf("LoadReport: ok=%v err=%v", ok, err)
	} else if got.Trials != spec.Trials {
		t.Fatalf("stored report has %d trials, want %d", got.Trials, spec.Trials)
	}
}

func TestCampaignUnderNoneSchemeFailsVerification(t *testing.T) {
	// Without a checkpointing scheme there is no recovery: every trial
	// must be reported (not hidden) as a verification failure, and the
	// settle loop's bound must keep the trial finite.
	spec := testSpec(1)
	spec.Base.Scheme = "none"
	rep, err := New(harness.NewRunner(1), nil).RunSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VerifiedOK != 0 {
		t.Fatalf("verified %d trials under the none scheme", rep.VerifiedOK)
	}
	if rep.TrialRecords[0].VerifyError == "" {
		t.Fatal("failed trial carries no verification error")
	}
}
