package service

// The wake path over HTTP: a remote worker long-polls
// POST /v1/cluster/lease, so it takes new work at once, does not spin
// on an idle cluster, and ends its wait on drain. The wait it asks for
// arrives from the network and is clamped.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/store"
)

// grantClock is a cluster.Protocol that records when each lease is
// granted.
type grantClock struct {
	cluster.Protocol
	granted chan time.Time
}

func (g grantClock) Lease(ctx context.Context, req cluster.LeaseRequest) (cluster.LeaseResponse, error) {
	resp, err := g.Protocol.Lease(ctx, req)
	if err == nil && resp.Lease != nil {
		select {
		case g.granted <- time.Now():
		default:
		}
	}
	return resp, err
}

// longPoll makes a worker ask for the coordinator's full wait cap
// (Poll 0) and, when granted is non-nil, record when each lease is
// granted.
func longPoll(granted chan time.Time) func(*cluster.WorkerConfig) {
	return func(cfg *cluster.WorkerConfig) {
		cfg.Poll = 0
		if granted != nil {
			cfg.Proto = grantClock{cfg.Proto, granted}
		}
	}
}

// awaitJoin waits for w to have joined its coordinator.
func awaitJoin(t *testing.T, w *cluster.Worker) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.ID() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker did not join")
		}
	}
}

// TestClusterRemoteWorkerWakesOnSubmit: with a 15 s lease TTL (a
// 3.75 s wait cap) a remote worker long-polling an idle coordinator
// takes a campaign submitted mid-wait at once, and Drain ends its next
// wait at once. The in-process worker is held until the lease is
// granted (holdWorker), so its trials do not compete with the measured
// wake for the CPU.
func TestClusterRemoteWorkerWakesOnSubmit(t *testing.T) {
	var release func()
	srv := newServer(t, t.TempDir(), func(cfg *Config) {
		cfg.Role = RoleCoordinator
		cfg.LeaseTTL = 15 * time.Second
		release = holdWorker(cfg)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	granted := make(chan time.Time, 1)
	w, _, ran := startWorker(t, ctx, ts.URL, "poller", longPoll(granted))
	awaitJoin(t, w)
	time.Sleep(200 * time.Millisecond) // the worker is inside its long poll

	submitted := time.Now()
	cr, code := postCampaignURL(t, ts.URL,
		`{"app":"FFT","procs":4,"scheme":"Rebound","trials":8,"faults":2,"window":60000,"seed":31}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	select {
	case at := <-granted:
		d := at.Sub(submitted)
		t.Logf("the long-polling worker took the campaign %v after its submission", d)
		if d > 100*time.Millisecond {
			t.Fatalf("long-polling worker took the campaign after %v, want within 100ms", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-polling worker never took the campaign")
	}
	release()
	pollCampaign(t, ts.URL, cr.Key)
	if trials, _, _ := w.Stats(); trials == 0 {
		t.Fatal("the remote worker ran no trial")
	}

	time.Sleep(100 * time.Millisecond) // back inside a long poll
	w.Drain()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run after Drain = %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Drain did not end the long poll")
	}
}

// TestClusterIdleRemoteWorkerDoesNotSpin: on an idle cluster a
// long-polling worker sends at most one lease request per wait cap.
func TestClusterIdleRemoteWorkerDoesNotSpin(t *testing.T) {
	const ttl = 400 * time.Millisecond // wait cap 100ms
	srv := newServer(t, t.TempDir(), func(cfg *Config) {
		cfg.Role = RoleCoordinator
		cfg.LeaseTTL = ttl
	})
	var leases atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/lease" {
			leases.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, _, ran := startWorker(t, ctx, ts.URL, "poller", longPoll(nil))
	awaitJoin(t, w)

	const window = time.Second
	before := leases.Load()
	time.Sleep(window)
	n := leases.Load() - before
	if limit := int64(window/(ttl/4)) + 2; n < 1 || n > limit {
		t.Fatalf("%d lease requests in %v on an idle cluster, want 1..%d", n, window, limit)
	}
	cancel()
	<-ran
}

// TestClusterLeaseWaitClamped: the lease wait is network input. A
// negative wait answers at once; a huge one is held no longer than the
// cap, a quarter of the lease TTL.
func TestClusterLeaseWaitClamped(t *testing.T) {
	const ttl = 2 * time.Second // wait cap 500ms
	_, ts := newCoordinator(t, t.TempDir(), ttl)
	lease := func(body string) (time.Duration, cluster.LeaseResponse) {
		t.Helper()
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out cluster.LeaseResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), out
	}
	if d, out := lease(`{"worker_id":"w","wait_ms":-5}`); d > 250*time.Millisecond || out.Lease != nil || !out.Idle {
		t.Fatalf("negative wait: answered after %v with %+v, want Idle at once", d, out)
	}
	if d, out := lease(`{"worker_id":"w","wait_ms":9223372036854775807}`); d < 400*time.Millisecond || d > 2*time.Second || out.Lease != nil {
		t.Fatalf("huge wait: answered after %v with %+v, want about the 500ms cap", d, out)
	}
	if d, _ := lease(`{"worker_id":"w","wait_ms":1000,"exit_on_idle":true}`); d > 250*time.Millisecond {
		t.Fatalf("exit_on_idle on an idle cluster: answered after %v, want at once", d)
	}
}

// FuzzClusterLease feeds arbitrary bodies to the lease handler. It must
// answer 200 with a LeaseResponse or 400, never panic, and never hold a
// request past the wait cap.
func FuzzClusterLease(f *testing.F) {
	for _, seed := range []string{
		`{"worker_id":"w001-a"}`,
		`{"worker_id":"w","wait_ms":5}`,
		`{"worker_id":"w","wait_ms":-1,"exit_on_idle":true}`,
		`{"worker_id":"w","wait_ms":9223372036854775807}`,
		`{"worker_id":""}`,
		`{"worker_id":"w","wait_ms":1e3}`,
		`{"worker_id":7}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	const ttl = 8 * time.Millisecond // wait cap 2ms
	st, err := store.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Runner: harness.NewRunner(1), Store: st, Scale: harness.Quick,
		Role: RoleCoordinator, LeaseTTL: ttl})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/lease", bytes.NewReader(body))
		start := time.Now()
		srv.ServeHTTP(rec, req)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("request held for %v, past the %v wait cap", d, ttl/4)
		}
		switch rec.Code {
		case http.StatusOK:
			var out cluster.LeaseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			if out.Lease != nil {
				t.Fatalf("lease granted on a cluster with no jobs: %+v", out.Lease)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
	})
}
