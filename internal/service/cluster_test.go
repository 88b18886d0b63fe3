package service

// End-to-end tests of distributed mode: a coordinator Server behind
// httptest with real cluster.Workers speaking HTTP to it — the full
// join/lease/complete/store-proxy loop in one process. The tests pin
// the subsystem's three contracts: a coordinator alone still completes
// every job (the in-process worker), a fleet-computed campaign report
// is byte-identical to a single-node one even when a worker is killed
// mid-campaign, and a worker's cold start costs exactly one snapshot
// store read.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/store"
)

// newCoordinator builds a coordinator-role Server on dir and serves it.
func newCoordinator(t *testing.T, dir string, ttl time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	srv := newServer(t, dir, func(cfg *Config) {
		cfg.Role = RoleCoordinator
		cfg.LeaseTTL = ttl
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// startWorker runs a remote-style worker (HTTP protocol + store proxy,
// no local store) against the coordinator at url until ctx ends.
func startWorker(t *testing.T, ctx context.Context, url, name string) (*cluster.Worker, *cluster.RemoteStore, chan error) {
	t.Helper()
	policy := retry.Policy{Attempts: 8, Jitter: 0.5, Seed: uint64(len(name))}
	tier := cluster.NewRemoteStore(url, nil, policy)
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Proto:  cluster.NewHTTPProtocol(url, nil, policy),
		Runner: harness.NewRunner(2),
		Tier:   tier,
		Name:   name,
		Poll:   5 * time.Millisecond,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return w, tier, done
}

// pollCampaign polls GET /v1/campaigns/{key} until done, returning the
// raw response body of the final poll — the byte-identity evidence.
func pollCampaign(t *testing.T, url, key string) []byte {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		resp, err := http.Get(url + "/v1/campaigns/" + key)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET campaign: %d: %s", resp.StatusCode, data)
		}
		var cr CampaignResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		switch cr.Status {
		case "done":
			return data
		case "failed":
			t.Fatalf("campaign failed: %s", cr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %s", data)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricsMap fetches and decodes /metrics.
func metricsMap(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClusterCoordinatorAloneCompletesCampaign pins the cluster-of-one
// guarantee: with zero remote workers the coordinator's in-process
// worker executes every lease, and /healthz + /metrics expose the
// cluster surface.
func TestClusterCoordinatorAloneCompletesCampaign(t *testing.T) {
	_, ts := newCoordinator(t, t.TempDir(), 0)

	cr, code := postCampaignURL(t, ts.URL,
		`{"app":"FFT","procs":4,"scheme":"Rebound","trials":4,"faults":2,"window":60000,"seed":9}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST: %d", code)
	}
	final := pollCampaign(t, ts.URL, cr.Key)
	var done CampaignResponse
	if err := json.Unmarshal(final, &done); err != nil {
		t.Fatal(err)
	}
	if done.Report == nil || done.Report.Trials != 4 || done.Report.VerifiedOK != 4 {
		t.Fatalf("coordinator-alone campaign: %s", final)
	}

	// healthz reports the role and the (empty) remote fleet.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["role"] != "coordinator" {
		t.Fatalf("healthz role = %v, want coordinator", hz["role"])
	}
	if _, ok := hz["peers"]; !ok {
		t.Fatalf("healthz carries no peer count: %v", hz)
	}

	// The cluster metrics exist and the trials flowed through leases.
	m := metricsMap(t, ts.URL)
	for _, k := range []string{"role", "workers_joined", "live_workers",
		"leases_active", "leases_expired", "trials_remote_total", "cells_remote_total"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("metrics missing %q: %v", k, m)
		}
	}
	if m["role"] != "coordinator" {
		t.Fatalf("metrics role = %v", m["role"])
	}
	if m["trials_remote_total"].(float64) < 4 {
		t.Fatalf("trials_remote_total = %v, want >= 4 (leases did not carry the campaign)",
			m["trials_remote_total"])
	}
	if m["leases_active"].(float64) != 0 {
		t.Fatalf("leases_active = %v after the campaign finished", m["leases_active"])
	}
}

// TestSingleRoleSurface pins the default role: a coordinator with no
// cluster routes. Every cluster and store-proxy route is 404, yet a
// campaign and an exploration complete through the in-process worker,
// and /healthz and /metrics keep their shape.
func TestSingleRoleSurface(t *testing.T) {
	srv := newServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, route := range []string{
		"POST /v1/cluster/join",
		"POST /v1/cluster/lease",
		"POST /v1/cluster/complete",
		"POST /v1/cluster/heartbeat",
		"GET /v1/store/ns/campaigns/k/trial-000001",
		"PUT /v1/store/ns/campaigns/k/trial-000001",
		"PUT /v1/store/runs/" + strings.Repeat("ab", 32),
	} {
		method, path, _ := strings.Cut(route, " ")
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", route, resp.StatusCode)
		}
	}

	cr, code := postCampaignURL(t, ts.URL, smallCampaign)
	if code != http.StatusAccepted {
		t.Fatalf("campaign POST: %d", code)
	}
	var done CampaignResponse
	if err := json.Unmarshal(pollCampaign(t, ts.URL, cr.Key), &done); err != nil {
		t.Fatal(err)
	}
	if done.Report == nil || done.Report.VerifiedOK != done.Report.Trials {
		t.Fatalf("campaign report: %+v", done.Report)
	}
	er, code := postExplore(t, ts.URL, exploreBody)
	if code != http.StatusAccepted {
		t.Fatalf("explore POST: %d", code)
	}
	if rep := pollExplore(t, ts.URL, er.Key).Report; rep == nil || len(rep.Frontier) == 0 {
		t.Fatalf("exploration report: %+v", rep)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["role"] != RoleSingle {
		t.Fatalf("healthz role = %v, want %s", hz["role"], RoleSingle)
	}

	m := metricsMap(t, ts.URL)
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"cache_hits", "cache_misses", "campaign_trials_done", "campaigns_running",
		"campaigns_total", "cells_remote_total", "dedups", "explore_cells_done",
		"explore_cells_evaluated", "explore_cells_from_store", "explores_running", "explores_total",
		"in_flight", "leases_active", "leases_expired", "live_workers", "max_concurrent",
		"queue_capacity", "queue_waiting", "role", "runner_cached_cells", "runs_total",
		"store_errors", "store_records", "sweeps_total", "trials_remote_total", "workers_joined"}
	if !slices.Equal(keys, want) {
		t.Fatalf("metrics keys = %v\nwant %v", keys, want)
	}
	if m["role"] != RoleSingle || m["workers_joined"].(float64) != 1 ||
		m["trials_remote_total"].(float64) < float64(done.Report.Trials) {
		t.Fatalf("metrics: role %v, %v workers joined, %v trials via leases; want single, 1 (the in-process worker), >= %d",
			m["role"], m["workers_joined"], m["trials_remote_total"], done.Report.Trials)
	}
}

// postCampaignURL is postCampaign against an explicit base URL.
func postCampaignURL(t *testing.T, url, body string) (CampaignResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var cr CampaignResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return cr, resp.StatusCode
}

// TestClusterCampaignByteIdentityAcrossFleet is the acceptance test:
// a 200-trial campaign on a coordinator with two HTTP workers — one of
// which is killed mid-campaign, so its lease expires and is re-issued
// — produces a stored report byte-identical to a single-node run of
// the same spec.
func TestClusterCampaignByteIdentityAcrossFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("200-trial fleet campaign; skipped with -short")
	}
	const body = `{"app":"FFT","procs":4,"scheme":"Rebound","trials":200,"faults":2,"window":60000,"seed":42}`

	// Reference: single-node daemon, same spec.
	single := newServer(t, t.TempDir(), nil)
	ts1 := httptest.NewServer(single)
	cr, code := postCampaignURL(t, ts1.URL, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("single POST: %d", code)
	}
	key := cr.Key
	var singleDone CampaignResponse
	if err := json.Unmarshal(pollCampaign(t, ts1.URL, key), &singleDone); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	singleReport, err := json.Marshal(singleDone.Report)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: a fresh store, a short lease TTL so the killed worker's
	// lease expires quickly, and two remote workers.
	srv, ts2 := newCoordinator(t, t.TempDir(), 300*time.Millisecond)
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	w1, _, done1 := startWorker(t, wctx, ts2.URL, "alpha")
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	w2, _, done2 := startWorker(t, victimCtx, ts2.URL, "victim")

	if cr, code = postCampaignURL(t, ts2.URL, body); code != http.StatusAccepted {
		t.Fatalf("fleet POST: %d", code)
	}
	if cr.Key != key {
		t.Fatalf("campaign key diverged: %s vs %s", cr.Key, key)
	}

	// Kill the victim the moment it has pushed a trial — mid-lease by
	// construction (a lease is tens of trials). Its heartbeats stop,
	// the lease expires, and the coordinator re-issues the remainder
	// while recognizing the already-pushed records.
	killDeadline := time.Now().Add(time.Minute)
	for {
		if trials, _, _ := w2.Stats(); trials >= 1 {
			killVictim()
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatal("victim worker never ran a trial")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done2; err != nil && err != context.Canceled {
		t.Fatalf("victim exit: %v", err)
	}

	var fleetDone CampaignResponse
	if err := json.Unmarshal(pollCampaign(t, ts2.URL, key), &fleetDone); err != nil {
		t.Fatal(err)
	}
	fleetReport, err := json.Marshal(fleetDone.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(fleetReport) != string(singleReport) {
		t.Fatalf("fleet report is not byte-identical to the single-node report\nfleet:  %.200s\nsingle: %.200s",
			fleetReport, singleReport)
	}

	// The survivor actually carried remote load, and the victim's death
	// showed up as an expired lease.
	if trials, _, _ := w1.Stats(); trials == 0 {
		t.Fatal("surviving remote worker ran no trials — work stealing never reached it")
	}
	m := srv.Coordinator().Metrics()
	if m.TrialsRemote < 200 {
		t.Fatalf("TrialsRemote = %d, want >= 200", m.TrialsRemote)
	}
	if m.LeasesExpired < 1 {
		t.Fatalf("LeasesExpired = %d, want >= 1 (the killed worker held a lease)", m.LeasesExpired)
	}
	if m.WorkersJoined < 3 {
		t.Fatalf("WorkersJoined = %d, want >= 3 (local + 2 remote)", m.WorkersJoined)
	}

	// The drained fleet shuts down cleanly.
	stopWorkers()
	if err := <-done1; err != nil && err != context.Canceled {
		t.Fatalf("survivor exit: %v", err)
	}
}

// TestClusterSweepThroughCoordinator routes a sweep through leases and
// checks the stored cells match a single-node sweep of the same specs.
func TestClusterSweepThroughCoordinator(t *testing.T) {
	_, ts := newCoordinator(t, t.TempDir(), 0)
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	w, _, done := startWorker(t, wctx, ts.URL, "sweeper")

	sweep := SweepRequest{Specs: []RunRequest{
		{App: "FFT", Procs: 4, Scheme: "Rebound"},
		{App: "FFT", Procs: 4, Scheme: "none"},
		{App: "Volrend", Procs: 4, Scheme: "Rebound"},
	}}
	var resp SweepResponse
	if code, body := do(t, ts.Client(), "POST", ts.URL+"/v1/sweeps", sweep, &resp); code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	if resp.Count != 3 || resp.Cached != 0 {
		t.Fatalf("sweep cells = %d cached = %d", resp.Count, resp.Cached)
	}

	// Every cell matches a fresh serial run — remote or local execution
	// is indistinguishable in the store.
	serial := harness.NewRunner(1)
	for i, rr := range sweep.Specs {
		spec, err := rr.Spec(harness.Quick)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := serial.RunOne(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cells[i].Cycles != fresh.Cycles {
			t.Fatalf("cell %d: cluster sweep %d cycles, serial %d", i, resp.Cells[i].Cycles, fresh.Cycles)
		}
	}

	// Re-sweeping is served from the store without touching the fleet.
	var again SweepResponse
	if code, _ := do(t, ts.Client(), "POST", ts.URL+"/v1/sweeps", sweep, &again); code != 200 ||
		again.Cached != again.Count {
		t.Fatalf("re-sweep not fully cached: %d/%d", again.Cached, again.Count)
	}

	stop()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatal(err)
	}
	_ = w
}

// TestClusterWorkerColdStartOneSnapshotRead pins the cold-start
// economics: once the campaign's warmed snapshot is in the store, a
// fresh worker reaches its first trial with exactly one snapshot read
// through the proxy — no rebuild, no re-warm, no repeat fetches.
func TestClusterWorkerColdStartOneSnapshotRead(t *testing.T) {
	_, ts := newCoordinator(t, t.TempDir(), 0)

	// Campaign one (no remote workers) warms the machine and persists
	// the snapshot through the in-process worker's store tier.
	cr, _ := postCampaignURL(t, ts.URL,
		`{"app":"FFT","procs":4,"scheme":"Rebound","trials":4,"faults":2,"window":60000,"seed":1}`)
	pollCampaign(t, ts.URL, cr.Key)

	// Campaign two: same base cell (same snapshot), new fault grid. The
	// cold worker joins first so the lease chunking sees a live fleet.
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	w, tier, done := startWorker(t, wctx, ts.URL, "cold")
	cr, _ = postCampaignURL(t, ts.URL,
		`{"app":"FFT","procs":4,"scheme":"Rebound","trials":60,"faults":2,"window":60000,"seed":2}`)
	pollCampaign(t, ts.URL, cr.Key)
	stop()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatal(err)
	}

	trials, _, _ := w.Stats()
	if trials == 0 {
		t.Fatal("cold worker ran no trials — nothing to measure")
	}
	if got := tier.SnapshotReads(); got != 1 {
		t.Fatalf("cold start cost %d snapshot reads for %d trials, want exactly 1", got, trials)
	}
}

// TestStoreProxySnapshotRecords: the store proxy takes a snapshot
// record only when it parses, verifies and sits at its own address, and
// serves it back as the same bytes with a binary media type; other
// namespaces keep their JSON check.
func TestStoreProxySnapshotRecords(t *testing.T) {
	_, ts := newCoordinator(t, t.TempDir(), 0)
	do := func(method, path string, body []byte) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), data
	}
	rec := store.NewSnapshotRecord("machine-snapshot|proxy", []byte("snapshot payload"))
	path := "/v1/store/ns/" + store.SnapshotsNamespace + "/" + rec.Key()
	good := rec.Marshal()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	for name, body := range map[string][]byte{
		"flipped payload": flipped,
		"truncated":       good[:len(good)-len(rec.Payload)-1],
		"JSON":            []byte(`{"key":"x"}`),
	} {
		if code, _, _ := do(http.MethodPut, path, body); code != http.StatusBadRequest {
			t.Errorf("PUT %s record: status %d, want 400", name, code)
		}
	}
	other := "/v1/store/ns/" + store.SnapshotsNamespace + "/" + store.SnapshotKeyOf("another key")
	if code, _, _ := do(http.MethodPut, other, good); code != http.StatusBadRequest {
		t.Errorf("PUT record under another key's address: status %d, want 400", code)
	}
	if code, _, _ := do(http.MethodPut, path, good); code != http.StatusNoContent {
		t.Fatalf("PUT good record: status %d, want 204", code)
	}
	code, ctype, data := do(http.MethodGet, path, nil)
	if code != http.StatusOK || ctype != "application/octet-stream" || !bytes.Equal(data, good) {
		t.Fatalf("GET record: status %d, type %q, same bytes %t", code, ctype, bytes.Equal(data, good))
	}
	payload, ok, err := cluster.NewRemoteStore(ts.URL, nil, retry.Policy{Attempts: 1}).GetSnapshot("machine-snapshot|proxy")
	if err != nil || !ok || !bytes.Equal(payload, rec.Payload) {
		t.Fatalf("RemoteStore.GetSnapshot: ok=%t err=%v payload %q", ok, err, payload)
	}
	if code, _, _ := do(http.MethodPut, "/v1/store/ns/campaigns/k/trial-000001", []byte("not json")); code != http.StatusBadRequest {
		t.Errorf("PUT non-JSON trial record: status %d, want 400", code)
	}
}

// TestFailingUnitsFailTheirJobs: a unit that fails on every attempt
// fails its sweep request or campaign job instead of being re-leased
// forever by the in-process worker, and the server keeps serving runs
// afterwards. A trial panics when its scale has a zero detection
// latency (a valid Go spec no HTTP request can name); a record fails
// to store when a directory sits at its path.
func TestFailingUnitsFailTheirJobs(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(t, dir, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// A request the worker never finishes times out instead of hanging.
	client := &http.Client{Timeout: time.Minute}

	// A campaign whose trials panic.
	panicky := campaign.Spec{Base: harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick},
		Trials: 2, Faults: 1, Seed: 1}
	panicky.Base.Scale.DetectLatency = 0
	errc := make(chan error, 1)
	go func() {
		_, err := srv.clusterCampaign(panicky, func(done, total int) {})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("panicking campaign: err = %v, want the trial's panic", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("panicking campaign still running after a minute")
	}

	// A sweep cell whose record cannot be stored.
	cell, err := RunRequest{App: "FFT", Procs: 4, Scheme: "none"}.Spec(srv.cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, store.KeyOf(cell)+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, client, "POST", ts.URL+"/v1/sweeps",
		SweepRequest{Specs: []RunRequest{{App: "FFT", Procs: 4, Scheme: "none"}}}, nil)
	if code != http.StatusInternalServerError || !strings.Contains(body, "failed") {
		t.Fatalf("unstorable sweep: %d %s, want 500 naming the failure", code, body)
	}

	// A campaign job whose first trial cannot be stored.
	var req CampaignRequest
	if err := json.Unmarshal([]byte(smallCampaign), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.Spec(srv.cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	key := campaign.KeyOf(spec)
	if err := os.MkdirAll(filepath.Join(dir, "campaigns", key, campaign.TrialRecordName(0)+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, code := postCampaignURL(t, ts.URL, smallCampaign); code != http.StatusAccepted {
		t.Fatalf("campaign POST: %d", code)
	}
	var got CampaignResponse
	for deadline := time.Now().Add(time.Minute); got.Status != StatusFailed; {
		if got.Status == StatusDone || time.Now().After(deadline) {
			t.Fatalf("unstorable campaign: %+v, want it to fail", got)
		}
		time.Sleep(20 * time.Millisecond)
		do(t, client, "GET", ts.URL+"/v1/campaigns/"+key, nil, &got)
	}
	if !strings.Contains(got.Error, "trial 0") {
		t.Fatalf("unstorable campaign failed with %q, want it to name trial 0", got.Error)
	}

	// The worker went idle: runs are served again.
	if code, body := do(t, client, "POST", ts.URL+"/v1/runs",
		RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound"}, nil); code != http.StatusOK {
		t.Fatalf("run after the failures: %d %s", code, body)
	}
	if n := srv.coord.Jobs(); n != 0 {
		t.Fatalf("%d coordinator jobs left, want 0", n)
	}
}
