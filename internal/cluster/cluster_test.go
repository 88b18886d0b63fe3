package cluster

// Coordinator-level tests, transport-free: workers speak the Direct
// protocol, so the whole lease/execute/push/complete loop runs in one
// process against a real store. The service layer's own tests cover
// the same machinery over HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/store"
)

func testSpec(trials int, seed uint64) campaign.Spec {
	return campaign.Spec{
		Base:   harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick},
		Trials: trials,
		Faults: 2,
		Window: 60000,
		Seed:   seed,
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newDirectWorker(t *testing.T, c *Coordinator, st *store.Store, name string) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Proto:      Direct{C: c},
		Runner:     harness.NewRunner(2),
		Tier:       &LocalTier{St: st},
		Name:       name,
		ExitOnIdle: true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDirectWorkerCampaignByteIdentity drives a campaign through the
// coordinator with one Direct worker and checks the assembled report
// is byte-identical to the local engine's on an independent store.
func TestDirectWorkerCampaignByteIdentity(t *testing.T) {
	st := openStore(t)
	c, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6, 11)

	var mu sync.Mutex
	var lastDone int
	j, err := c.SubmitCampaign(spec, func(done, total int) {
		mu.Lock()
		lastDone = done
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	w := newDirectWorker(t, c, st, "direct")
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("worker went idle but the job is not done")
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if lastDone != spec.Trials {
		t.Fatalf("onProgress saw %d/%d trials", lastDone, spec.Trials)
	}
	mu.Unlock()

	// The stored report equals the local engine's, byte for byte.
	ns, err := campaign.TrialNamespace(st, j.Key())
	if err != nil {
		t.Fatal(err)
	}
	var clustered campaign.Report
	if ok, err := ns.GetJSON(campaign.ReportRecordName, &clustered); err != nil || !ok {
		t.Fatalf("no report stored: ok=%v err=%v", ok, err)
	}
	local, err := campaign.New(harness.NewRunner(2), openStore(t)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(&clustered)
	lj, _ := json.Marshal(local)
	if string(cj) != string(lj) {
		t.Fatalf("clustered report differs from local engine\ncluster: %.200s\nlocal:   %.200s", cj, lj)
	}

	// A sweep through the same worker lands its records in the store.
	specs := []harness.Spec{
		{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick},
		{App: "FFT", Procs: 4, Scheme: "none", Scale: harness.Quick},
	}
	sj, err := c.SubmitSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker (sweep): %v", err)
	}
	select {
	case <-sj.Done():
	default:
		t.Fatal("sweep job not done")
	}
	for _, spec := range specs {
		if !st.Has(store.KeyOf(spec)) {
			t.Fatalf("sweep cell %s not stored", store.KeyOf(spec))
		}
	}
	if m := c.Metrics(); m.CellsRemote != 2 || m.TrialsRemote != int64(spec.Trials) {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestLeaseExpiryRecoversPushedWork pins the crash-recovery contract:
// a worker that leases units, pushes some records and dies silently
// loses only its unpushed work. At expiry the coordinator probes the
// store — pushed units are recognized and marked done, never re-run —
// and re-issues the rest.
func TestLeaseExpiryRecoversPushedWork(t *testing.T) {
	st := openStore(t)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c, err := New(Config{Store: st, LeaseTTL: time.Second, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(4, 7)
	j, err := c.SubmitCampaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Worker A leases every trial, runs exactly one, pushes its record,
	// and vanishes without completing.
	a := c.Join(JoinRequest{Name: "doomed", Procs: 4})
	resp := c.Lease(LeaseRequest{WorkerID: a.WorkerID})
	if resp.Lease == nil || resp.Lease.Kind != KindCampaign {
		t.Fatalf("no campaign lease: %+v", resp)
	}
	pushed := resp.Lease.Indices[0]
	tier := &LocalTier{St: st}
	tr := campaign.NewTrialRunnerStored(spec, tier)
	trial, err := tr.Run(pushed)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.PutTrial(j.Key(), pushed, &trial); err != nil {
		t.Fatal(err)
	}

	// Nothing is reclaimable before the TTL.
	if m := c.Metrics(); m.LeasesActive != 1 || m.LeasesExpired != 0 {
		t.Fatalf("before expiry: %+v", m)
	}

	// The clock jumps past the deadline; worker B's next lease triggers
	// the reap and receives the re-issued units.
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	b := newDirectWorker(t, c, st, "heir")
	if err := b.Run(context.Background()); err != nil {
		t.Fatalf("worker B: %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("job not done after worker B drained the re-issued units")
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	// B ran only the three unpushed trials; the pushed one was
	// recognized from the store at reap time.
	if trials, _, _ := b.Stats(); trials != int64(spec.Trials-1) {
		t.Fatalf("worker B ran %d trials, want %d (pushed unit must not re-run)",
			trials, spec.Trials-1)
	}
	m := c.Metrics()
	if m.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", m.LeasesExpired)
	}
	if m.TrialsRemote != int64(spec.Trials) {
		t.Fatalf("TrialsRemote = %d, want %d", m.TrialsRemote, spec.Trials)
	}

	// The assembled report is complete and verified.
	ns, err := campaign.TrialNamespace(st, j.Key())
	if err != nil {
		t.Fatal(err)
	}
	var rep campaign.Report
	if ok, err := ns.GetJSON(campaign.ReportRecordName, &rep); err != nil || !ok {
		t.Fatalf("no report: ok=%v err=%v", ok, err)
	}
	if rep.Trials != spec.Trials || rep.VerifiedOK != spec.Trials {
		t.Fatalf("report verified %d/%d", rep.VerifiedOK, rep.Trials)
	}
}

// TestWorkerDropsRunnersWhenIdle: the idle lease reply that ends a
// worker's last job also empties its TrialRunner cache, so a finished
// campaign's warmed machines are not pinned in memory. A resubmitted
// campaign of the same spec is answered from the store and runs no
// trial.
func TestWorkerDropsRunnersWhenIdle(t *testing.T) {
	st := openStore(t)
	c, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2, 5)
	j, err := c.SubmitCampaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newDirectWorker(t, c, st, "idle")
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	<-j.Done()
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	cachedRunners := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.runners) + len(w.order)
	}
	if trials, _, _ := w.Stats(); trials != int64(spec.Trials) {
		t.Fatalf("worker ran %d trials, want %d", trials, spec.Trials)
	}
	if n := cachedRunners(); n != 0 {
		t.Fatalf("worker holds %d cached runners after the idle reply, want 0", n)
	}

	ns, err := campaign.TrialNamespace(st, j.Key())
	if err != nil {
		t.Fatal(err)
	}
	report, ok, err := ns.GetRaw(campaign.ReportRecordName)
	if err != nil || !ok {
		t.Fatalf("no report stored: ok=%v err=%v", ok, err)
	}
	again, err := c.SubmitCampaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-again.Done():
	default:
		t.Fatal("resubmitted campaign is not done at submission")
	}
	if err := again.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker (resubmit): %v", err)
	}
	if trials, _, _ := w.Stats(); trials != int64(spec.Trials) {
		t.Fatalf("resubmit ran %d more trials, want 0", trials-int64(spec.Trials))
	}
	if n := cachedRunners(); n != 0 {
		t.Fatalf("resubmit built %d runners, want 0", n)
	}
	if after, _, _ := ns.GetRaw(campaign.ReportRecordName); !bytes.Equal(after, report) {
		t.Fatal("resubmit rewrote the stored report")
	}
}

// panicTier is a LocalTier whose snapshot read panics: the panic
// source of the failure tests, since no valid spec makes a trial panic.
type panicTier struct{ LocalTier }

func (*panicTier) GetSnapshot(string) ([]byte, bool, error) { panic("snapshot tier failure") }

// TestPanickingTrialFailsJob: a trial that panics on every attempt
// fails its campaign job after MaxUnitFailures reports, so the worker
// goes idle instead of re-running the trial forever. The trials panic
// because the worker's tier panics on the snapshot read.
func TestPanickingTrialFailsJob(t *testing.T) {
	st := openStore(t)
	c, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2, 3)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitCampaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		Proto:      Direct{C: c},
		Runner:     harness.NewRunner(2),
		Tier:       &panicTier{LocalTier{St: st}},
		Name:       "panicky",
		ExitOnIdle: true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- w.Run(context.Background()) }()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("worker still running a campaign whose trials always panic")
	}
	<-j.Done()
	err = j.Err()
	if err == nil || !strings.Contains(err.Error(), "panic") ||
		!strings.Contains(err.Error(), fmt.Sprintf("failed %d times", MaxUnitFailures)) {
		t.Fatalf("job error = %v, want the trial's panic after %d failures", err, MaxUnitFailures)
	}
	if n := c.Jobs(); n != 0 {
		t.Fatalf("%d jobs in flight after the failure, want 0", n)
	}
	if trials, _, _ := w.Stats(); trials != 0 {
		t.Fatalf("worker completed %d trials, want 0", trials)
	}
}

// TestUnitFailuresBelowLimitReLease: a failure report returns its unit
// to the pool until the unit has failed MaxUnitFailures times, and only
// then fails the job.
func TestUnitFailuresBelowLimitReLease(t *testing.T) {
	st := openStore(t)
	c, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	cell := harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick}
	j, err := c.SubmitSweep([]harness.Spec{cell})
	if err != nil {
		t.Fatal(err)
	}
	wid := c.Join(JoinRequest{Name: "fake"}).WorkerID
	key := store.KeyOf(cell)
	for attempt := 1; attempt <= MaxUnitFailures; attempt++ {
		resp := c.Lease(LeaseRequest{WorkerID: wid})
		if resp.Lease == nil || len(resp.Lease.Specs) != 1 {
			t.Fatalf("attempt %d: no lease for the failed cell: %+v", attempt, resp)
		}
		c.Complete(CompleteRequest{WorkerID: wid, LeaseID: resp.Lease.ID, Job: resp.Lease.Job,
			Failed: []UnitFailure{{Key: key, Err: "boom"}}})
		select {
		case <-j.Done():
			if attempt < MaxUnitFailures {
				t.Fatalf("job finished after %d failures, want %d", attempt, MaxUnitFailures)
			}
		default:
			if attempt == MaxUnitFailures {
				t.Fatalf("job still running after %d failures", attempt)
			}
		}
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("job error = %v, want the cell's key and its error", err)
	}
	if resp := c.Lease(LeaseRequest{WorkerID: wid}); resp.Lease != nil || !resp.Idle {
		t.Fatalf("lease after the job failed: %+v, want idle", resp)
	}
}
