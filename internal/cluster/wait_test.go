package cluster

// Tests of the wake path: an idle worker's lease request waits on the
// coordinator's change signal (LeaseWait) instead of sleeping, so it
// takes new work at once, reaps an expired lease at its deadline, and
// ends its wait on drain or cancellation.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/harness"
)

// grantClock is a Protocol that records when each lease is granted.
type grantClock struct {
	Protocol
	granted chan time.Time
}

func (g grantClock) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	resp, err := g.Protocol.Lease(ctx, req)
	if err == nil && resp.Lease != nil {
		select {
		case g.granted <- time.Now():
		default:
		}
	}
	return resp, err
}

// startDirect runs a Direct worker with the default Poll (the
// coordinator's wait cap) until ctx ends, waiting for it to join.
func startDirect(t *testing.T, ctx context.Context, c *Coordinator, proto Protocol, exitOnIdle bool) (*Worker, chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Proto:      proto,
		Runner:     harness.NewRunner(2),
		Tier:       &LocalTier{St: c.cfg.Store},
		Name:       "waiter",
		ExitOnIdle: exitOnIdle,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); w.ID() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker did not join")
		}
	}
	return w, ran
}

// waitRun waits up to limit for a worker's Run to return.
func waitRun(t *testing.T, ran chan error, limit time.Duration, what string) error {
	t.Helper()
	select {
	case err := <-ran:
		return err
	case <-time.After(limit):
		t.Fatalf("%s: worker still waiting after %v", what, limit)
		return nil
	}
}

// TestClusterDirectWorkerWakesOnSubmit: with a 15 s lease TTL the
// wait cap is 3.75 s, yet a waiting in-process worker takes a job
// submitted mid-wait at once, and an ExitOnIdle one returns as soon as
// the job is done.
func TestClusterDirectWorkerWakesOnSubmit(t *testing.T) {
	c, err := New(Config{Store: openStore(t), LeaseTTL: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proto := grantClock{Direct{C: c}, make(chan time.Time, 1)}
	w, ran := startDirect(t, ctx, c, proto, false)
	time.Sleep(200 * time.Millisecond) // the worker is inside its wait

	submitted := time.Now()
	j, err := c.SubmitCampaign(testSpec(2, 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-proto.granted:
		d := at.Sub(submitted)
		t.Logf("the waiting worker took the job %v after its submission", d)
		if d > 100*time.Millisecond {
			t.Fatalf("waiting worker took the job after %v, want within 100ms", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting worker never took the job")
	}
	<-j.Done()
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if trials, _, _ := w.Stats(); trials != 2 {
		t.Fatalf("worker ran %d trials, want 2", trials)
	}
	cancel()
	if err := waitRun(t, ran, time.Second, "cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}

	// An ExitOnIdle worker waits while the job's last units are leased
	// elsewhere and returns the moment the job finishes.
	j, err = c.SubmitCampaign(testSpec(1, 22), nil)
	if err != nil {
		t.Fatal(err)
	}
	other := c.Join(JoinRequest{Name: "other"}).WorkerID
	held := c.Lease(LeaseRequest{WorkerID: other})
	if held.Lease == nil {
		t.Fatal("no lease for the other worker")
	}
	_, ran = startDirect(t, context.Background(), c, Direct{C: c}, true)
	time.Sleep(100 * time.Millisecond)
	// The other worker reports its unit failed once: the unit returns
	// to the pool, and the waiting worker takes and finishes it.
	c.Complete(CompleteRequest{WorkerID: other, LeaseID: held.Lease.ID, Job: held.Lease.Job,
		Failed: []UnitFailure{{Index: held.Lease.Indices[0], Err: "lost"}}})
	if err := waitRun(t, ran, 30*time.Second, "exit on idle"); err != nil {
		t.Fatalf("ExitOnIdle worker: %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("ExitOnIdle worker returned before the job was done")
	}
}

// TestClusterWaitReapsExpiredLeaseOnTime: a waiting lease request wakes
// at the earliest lease deadline, so a dead worker's units are reaped
// and handed to the waiter on time, with no other call made — not at
// the end of the wait cap.
func TestClusterWaitReapsExpiredLeaseOnTime(t *testing.T) {
	const ttl = 2 * time.Second // wait cap 500ms
	c, err := New(Config{Store: openStore(t), LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCampaign(testSpec(4, 23), nil); err != nil {
		t.Fatal(err)
	}
	dead := c.Join(JoinRequest{Name: "dead", Procs: 4}).WorkerID
	heir := c.Join(JoinRequest{Name: "heir"}).WorkerID
	granted := time.Now()
	if resp := c.Lease(LeaseRequest{WorkerID: dead}); resp.Lease == nil || len(resp.Lease.Indices) != 4 {
		t.Fatalf("dead worker's lease: %+v", resp)
	}
	deadline := granted.Add(ttl)
	time.Sleep(time.Until(deadline.Add(-100 * time.Millisecond)))

	resp := c.LeaseWait(context.Background(), LeaseRequest{WorkerID: heir, WaitMillis: 10_000})
	late := time.Since(deadline)
	t.Logf("expired lease reaped and re-leased %v after its deadline", late)
	if resp.Lease == nil {
		t.Fatalf("waiter got no lease: %+v", resp)
	}
	if late > 200*time.Millisecond {
		t.Fatalf("expired lease reaped %v after its deadline, want within 200ms (the wait cap ends 400ms after it)", late)
	}
	if m := c.Metrics(); m.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", m.LeasesExpired)
	}
}

// TestClusterWaitEndsOnDrainAndCancel: a worker waiting through an
// idle cluster (wait cap 3.75 s) stops at once on Drain or on its
// context's end, and an ExitOnIdle worker is answered Idle at once.
func TestClusterWaitEndsOnDrainAndCancel(t *testing.T) {
	c, err := New(Config{Store: openStore(t), LeaseTTL: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w, ran := startDirect(t, context.Background(), c, Direct{C: c}, false)
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	w.Drain()
	if err := waitRun(t, ran, 500*time.Millisecond, "drain"); err != nil {
		t.Fatalf("Run after Drain = %v, want nil", err)
	}
	t.Logf("drain ended the wait in %v", time.Since(start))

	ctx, cancel := context.WithCancel(context.Background())
	_, ran = startDirect(t, ctx, c, Direct{C: c}, false)
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := waitRun(t, ran, 500*time.Millisecond, "cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}

	start = time.Now()
	_, ran = startDirect(t, context.Background(), c, Direct{C: c}, true)
	if err := waitRun(t, ran, 500*time.Millisecond, "idle"); err != nil {
		t.Fatalf("ExitOnIdle worker on an idle cluster: %v", err)
	}
	t.Logf("ExitOnIdle worker returned in %v", time.Since(start))
}
