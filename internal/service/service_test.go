package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/store"
)

// newServer builds a Server on a fresh runner and a store rooted at
// dir (one test can share a dir across servers to model restarts).
func newServer(t *testing.T, dir string, mutate func(*Config)) *Server {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Runner: harness.NewRunner(2), Store: st, Scale: harness.Quick}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do round-trips a request through the live httptest server.
func do(t *testing.T, client *http.Client, method, url string, body any, out any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s response: %v\n%s", method, url, err, raw.String())
		}
	}
	return resp.StatusCode, raw.String()
}

func TestEndToEndRunFetchRepeat(t *testing.T) {
	srv := newServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	// healthz first.
	if code, body := do(t, c, "GET", ts.URL+"/healthz", nil, nil); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// First run simulates.
	req := RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound"}
	var first RunResponse
	if code, body := do(t, c, "POST", ts.URL+"/v1/runs", req, &first); code != 200 {
		t.Fatalf("first run: %d %s", code, body)
	}
	if first.Cached || first.Record == nil || first.Record.Cycles == 0 {
		t.Fatalf("first run should simulate: %+v", first)
	}

	// Fetch by key: the response is the stored record's bytes served
	// zero-copy, with the content address as a permanent ETag.
	var fetched store.Record
	greq, err := http.NewRequest("GET", ts.URL+"/v1/runs/"+first.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	gresp, err := c.Do(greq)
	if err != nil {
		t.Fatal(err)
	}
	if gresp.StatusCode != 200 {
		t.Fatalf("fetch: %d", gresp.StatusCode)
	}
	etag := gresp.Header.Get("ETag")
	if want := `"` + first.Key + `"`; etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}
	if gresp.Header.Get("Content-Length") == "" {
		t.Fatal("fetch response carries no Content-Length")
	}
	if err := json.NewDecoder(gresp.Body).Decode(&fetched); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if fetched.Stats.Snapshot() != first.Record.Stats.Snapshot() {
		t.Fatal("fetched record differs from the run response")
	}
	// Conditional revalidation by ETag is a 304 without the body.
	greq, err = http.NewRequest("GET", ts.URL+"/v1/runs/"+first.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	greq.Header.Set("If-None-Match", etag)
	gresp, err = c.Do(greq)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: %d, want 304", gresp.StatusCode)
	}

	// Repeat hits the cache.
	var second RunResponse
	if code, _ := do(t, c, "POST", ts.URL+"/v1/runs", req, &second); code != 200 {
		t.Fatal("second run failed")
	}
	if !second.Cached {
		t.Fatalf("second identical run should be served from the store: %+v", second)
	}
	if second.Record.Cycles != first.Record.Cycles {
		t.Fatal("cached result differs from the original")
	}

	// Metrics reflect one miss and (at least) one hit.
	var m map[string]any
	if code, body := do(t, c, "GET", ts.URL+"/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if m["cache_misses"].(float64) != 1 {
		t.Fatalf("cache_misses = %v, want 1", m["cache_misses"])
	}
	if m["cache_hits"].(float64) < 1 {
		t.Fatalf("cache_hits = %v, want >= 1", m["cache_hits"])
	}

	// Unknown key is 404.
	if code, _ := do(t, c, "GET", ts.URL+"/v1/runs/deadbeef", nil, nil); code != 404 {
		t.Fatalf("unknown key: %d, want 404", code)
	}
}

func TestInvalidSpecIs400(t *testing.T) {
	srv := newServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	cases := []any{
		RunRequest{App: "NoSuchApp", Procs: 4, Scheme: "Rebound"},
		RunRequest{App: "FFT", Procs: 4, Scheme: "bogus"},
		RunRequest{App: "FFT", Procs: -3, Scheme: "Rebound"},
		RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: "galactic"},
		RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound", DepSets: 1},
		RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound", WSIGBits: 1 << 30},
		json.RawMessage(`{"app":"FFT","procs":4,"scheme":"Rebound","shards":3}`),
		map[string]any{"app": "FFT", "unknown_field": true},
		"not json at all",
	}
	for i, body := range cases {
		code, resp := do(t, c, "POST", ts.URL+"/v1/runs", body, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("case %d: %d (%s), want 400", i, code, resp)
		}
		if !strings.Contains(resp, "error") {
			t.Fatalf("case %d: no error body: %s", i, resp)
		}
	}

	// Invalid spec inside a sweep list, and an unknown figure.
	if code, _ := do(t, c, "POST", ts.URL+"/v1/sweeps",
		SweepRequest{Specs: []RunRequest{{App: "NoSuchApp", Scheme: "Rebound"}}}, nil); code != 400 {
		t.Fatalf("bad sweep spec: %d, want 400", code)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/sweeps",
		SweepRequest{Figure: "fig9.9"}, nil); code != 400 {
		t.Fatalf("unknown figure: %d, want 400", code)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/sweeps", SweepRequest{}, nil); code != 400 {
		t.Fatalf("empty sweep: %d, want 400", code)
	}
}

// awaitIdle waits until srv has no coordinator job in flight and no
// waiting-room token held. A job releases its token just after it is
// done, so a response can arrive a moment before the release.
func awaitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.coord.Jobs() != 0 || len(srv.waitq) != 0 || srv.queued.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked: %d coordinator jobs, %d waiting-room tokens, queue_waiting %d",
				srv.coord.Jobs(), len(srv.waitq), srv.queued.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelledRequestFreesQueueSlot(t *testing.T) {
	// A waiting room of one: a request cancelled before it is served
	// must start no job and leak no token, or the follow-up request
	// would join a job or 503.
	srv := newServer(t, t.TempDir(), func(cfg *Config) { cfg.QueueDepth = 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := bytes.NewBufferString(`{"app":"FFT","procs":4,"scheme":"Rebound"}`)
	req := httptest.NewRequest("POST", "/v1/runs", body).WithContext(ctx)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request: %d, want 503", rw.Code)
	}

	// The room is free: an identical live request simulates normally.
	body = bytes.NewBufferString(`{"app":"FFT","procs":4,"scheme":"Rebound"}`)
	req = httptest.NewRequest("POST", "/v1/runs", body)
	rw = httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("follow-up request: %d (%s), want 200 — waiting-room token leaked?",
			rw.Code, rw.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Record.Cycles == 0 {
		t.Fatalf("follow-up should have simulated fresh: %+v", resp)
	}
	awaitIdle(t, srv)
}

func TestSweepExplicitSpecsAndStoreReuse(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(t, dir, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	sweep := SweepRequest{Specs: []RunRequest{
		{App: "FFT", Procs: 4, Scheme: "Rebound"},
		{App: "FFT", Procs: 4, Scheme: "none"},
		{App: "FFT", Procs: 4, Scheme: "Rebound"}, // duplicate cell
	}}
	var resp SweepResponse
	if code, body := do(t, c, "POST", ts.URL+"/v1/sweeps", sweep, &resp); code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	if resp.Count != 3 || len(resp.Cells) != 3 {
		t.Fatalf("cells = %d/%d, want 3", resp.Count, len(resp.Cells))
	}
	if resp.Cells[0].Key != resp.Cells[2].Key || resp.Cells[0].Cycles != resp.Cells[2].Cycles {
		t.Fatal("duplicate spec not collapsed to one cell")
	}
	if resp.Cached != 0 {
		t.Fatalf("fresh sweep reported %d cached cells", resp.Cached)
	}

	// A single run matching a sweep cell is now a store hit.
	var rr RunResponse
	if code, _ := do(t, c, "POST", ts.URL+"/v1/runs",
		RunRequest{App: "FFT", Procs: 4, Scheme: "none"}, &rr); code != 200 || !rr.Cached {
		t.Fatalf("run after sweep should hit the store: code=%d cached=%v", code, rr.Cached)
	}

	// Re-sweeping is fully cached.
	var again SweepResponse
	if code, _ := do(t, c, "POST", ts.URL+"/v1/sweeps", sweep, &again); code != 200 {
		t.Fatal("re-sweep failed")
	}
	if again.Cached != again.Count {
		t.Fatalf("re-sweep cached = %d, want all %d cells", again.Cached, again.Count)
	}
}

func TestConcurrentSweepsAndRunsDoNotDeadlock(t *testing.T) {
	// Interleaved sweeps and single runs are all coordinator jobs of
	// the one in-process worker; they must all complete, and leave no
	// job or waiting-room token behind.
	srv := newServer(t, t.TempDir(), func(cfg *Config) { cfg.QueueDepth = 16 })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sweepBody := `{"specs":[{"app":"FFT","procs":4,"scheme":"Rebound"},{"app":"FFT","procs":4,"scheme":"none"}]}`
	runBody := `{"app":"Volrend","procs":4,"scheme":"Rebound"}`
	const n = 8
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		url, body := ts.URL+"/v1/sweeps", sweepBody
		if i%2 == 0 {
			url, body = ts.URL+"/v1/runs", runBody
		}
		go func() {
			resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	awaitIdle(t, srv)
}

// TestSweepAdmissionBound: a sweep that starts a coordinator job takes
// a waiting-room token, and the job holds it until it is done. With
// QueueDepth 1, a second distinct sweep is turned away with 503, also
// after the first request was cancelled, while a re-POST of the first
// joins its job without a token.
func TestSweepAdmissionBound(t *testing.T) {
	var release func()
	srv := newServer(t, t.TempDir(), func(cfg *Config) {
		cfg.QueueDepth = 1
		release = holdWorker(cfg)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer release()

	const first = `{"specs":[{"app":"FFT","procs":4,"scheme":"Rebound"}]}`
	type outcome struct {
		code int
		resp SweepResponse
		err  error
	}
	results := make(chan outcome, 2)
	post := func(ctx context.Context) {
		var o outcome
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweeps", strings.NewReader(first))
		if err != nil {
			results <- outcome{err: err}
			return
		}
		resp, err := ts.Client().Do(req)
		if err == nil {
			o.code = resp.StatusCode
			o.err = json.NewDecoder(resp.Body).Decode(&o.resp)
			resp.Body.Close()
		}
		if o.err == nil {
			o.err = err
		}
		results <- o
	}
	// An admitted distinct sweep would wait on the held runner: the
	// timeout turns that into a failure instead of a hang.
	impatient := &http.Client{Timeout: 5 * time.Second}
	distinctIs503 := func(when string) {
		t.Helper()
		if code, body := do(t, impatient, "POST", ts.URL+"/v1/sweeps",
			SweepRequest{Specs: []RunRequest{{App: "FFT", Procs: 4, Scheme: "none"}}}, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("distinct sweep %s: %d %s, want 503", when, code, body)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go post(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for srv.coord.Jobs() != 1 || len(srv.waitq) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("first sweep never started its job: %d jobs, %d tokens", srv.coord.Jobs(), len(srv.waitq))
		}
		time.Sleep(time.Millisecond)
	}
	distinctIs503("with the first sweep waiting")

	// Cancelling the first request leaves its job running, and the job
	// keeps its token.
	cancel()
	if o := <-results; o.err == nil {
		t.Fatalf("cancelled sweep answered %d, want a transport error", o.code)
	}
	time.Sleep(200 * time.Millisecond) // let the server see the cancel
	if n := srv.coord.Jobs(); n != 1 || len(srv.waitq) != 1 {
		t.Fatalf("%d coordinator jobs, %d tokens after the cancel, want 1 and 1", n, len(srv.waitq))
	}
	distinctIs503("after the first request was cancelled")

	// The re-POST joins: it is not turned away, and it starts no job.
	go post(context.Background())
	select {
	case o := <-results:
		t.Fatalf("re-POST answered %d while the first sweep's job was held, want it to wait", o.code)
	case <-time.After(200 * time.Millisecond):
	}
	if n := srv.coord.Jobs(); n != 1 {
		t.Fatalf("%d coordinator jobs after the re-POST, want 1", n)
	}

	release()
	o := <-results
	if o.err != nil || o.code != http.StatusOK {
		t.Fatalf("re-POST: %d %v, want 200", o.code, o.err)
	}
	if o.resp.Cached != 0 || o.resp.Cells[0].Cycles == 0 {
		t.Fatalf("re-POST was not served by the held job: %+v", o.resp)
	}
	deadline = time.Now().Add(10 * time.Second)
	for len(srv.waitq) != 0 || srv.queued.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("waiting room leaked: %d tokens, queue_waiting %d", len(srv.waitq), srv.queued.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepFig62PersistsAcrossRestart is the acceptance-criteria
// integration test: POST /v1/sweeps {"figure":"fig6.2"} end-to-end at
// quick scale, then a "restarted" daemon (new Server + new Runner,
// same store directory) re-serves the sweep entirely from disk, with
// results byte-identical to a fresh serial run.
func TestSweepFig62PersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6.2 sweep is a multi-cell simulation; skipped with -short")
	}
	dir := t.TempDir()

	// Daemon one serves the sweep, simulating every cell.
	srv1 := newServer(t, dir, func(cfg *Config) { cfg.Runner = harness.NewRunner(0) })
	ts1 := httptest.NewServer(srv1)
	var first SweepResponse
	if code, body := do(t, ts1.Client(), "POST", ts1.URL+"/v1/sweeps",
		SweepRequest{Figure: "fig6.2"}, &first); code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	ts1.Close()
	if first.Cached != 0 || first.Count == 0 {
		t.Fatalf("fresh daemon should simulate everything: %+v", first)
	}

	// Daemon two: same store, empty runner. Everything must come from
	// disk — its runner never simulates a cell.
	srv2 := newServer(t, dir, nil)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	var second SweepResponse
	if code, body := do(t, ts2.Client(), "POST", ts2.URL+"/v1/sweeps",
		SweepRequest{Figure: "fig6.2"}, &second); code != 200 {
		t.Fatalf("re-sweep: %d %s", code, body)
	}
	if second.Cached != second.Count {
		t.Fatalf("restarted daemon simulated %d cells instead of serving the store",
			second.Count-second.Cached)
	}
	if srv2.cfg.Runner.CachedRuns() != 0 {
		t.Fatalf("restarted daemon ran %d simulations", srv2.cfg.Runner.CachedRuns())
	}
	for i := range first.Cells {
		if first.Cells[i].Key != second.Cells[i].Key || first.Cells[i].Cycles != second.Cells[i].Cycles {
			t.Fatalf("cell %d diverged across restart", i)
		}
	}

	// Byte-identity: every stored record equals a fresh serial run of
	// its spec on an independent runner.
	specs, err := harness.FigureSpecs("fig6.2", harness.Quick)
	if err != nil {
		t.Fatal(err)
	}
	serial := harness.NewRunner(1)
	for _, spec := range specs {
		rec, ok, err := srv2.cfg.Store.GetSpec(spec)
		if err != nil || !ok {
			t.Fatalf("spec %s not stored: ok=%v err=%v", spec.Key(), ok, err)
		}
		fresh, err := serial.RunOne(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Stats.Snapshot() != fresh.St.Snapshot() || rec.Cycles != fresh.Cycles || rec.Power != fresh.Power {
			t.Fatalf("stored record for %s not byte-identical to a fresh serial run", spec.Key())
		}
	}
}

func TestDedupJoinsInFlightSimulation(t *testing.T) {
	srv := newServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hammer one spec concurrently; the service must run it once.
	const n = 6
	type outcome struct {
		resp RunResponse
		code int
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			var o outcome
			resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json",
				strings.NewReader(`{"app":"Volrend","procs":4,"scheme":"Rebound"}`))
			if err != nil {
				o.err = err
				results <- o
				return
			}
			defer resp.Body.Close()
			o.code = resp.StatusCode
			o.err = json.NewDecoder(resp.Body).Decode(&o.resp)
			results <- o
		}()
	}
	var fresh, shared int
	var cycles uint64
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.code != 200 {
			t.Fatalf("request failed: %d", o.code)
		}
		if o.resp.Cached || o.resp.Deduped {
			shared++
		} else {
			fresh++
		}
		if cycles == 0 {
			cycles = o.resp.Record.Cycles
		} else if o.resp.Record.Cycles != cycles {
			t.Fatal("concurrent identical requests returned different results")
		}
	}
	if fresh != 1 {
		t.Fatalf("%d fresh simulations for one spec, want 1 (%d shared)", fresh, shared)
	}
	if srv.cfg.Runner.CachedRuns() != 1 {
		t.Fatalf("runner simulated %d cells, want 1", srv.cfg.Runner.CachedRuns())
	}
}

// pushTier is a heldTier that announces each record push on entered
// before it waits for the gate.
type pushTier struct {
	*heldTier
	entered chan struct{}
}

func (t pushTier) PutRecord(rec *store.Record) error {
	t.entered <- struct{}{}
	return t.heldTier.PutRecord(rec)
}

// TestConcurrentRunMissesShareThePool: distinct run misses arriving
// together simulate side by side on the runner's pool, one one-cell
// lease each, rather than one after another.
func TestConcurrentRunMissesShareThePool(t *testing.T) {
	const width = 3
	var tier pushTier
	srv := newServer(t, t.TempDir(), func(cfg *Config) {
		cfg.Runner = harness.NewRunner(width)
		tier = pushTier{&heldTier{LocalTier: cluster.LocalTier{St: cfg.Store}, gate: make(chan struct{})},
			make(chan struct{}, width+1)}
		cfg.tier = tier
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(tier.gate) }) }
	defer release()

	codes := make(chan int, width)
	for _, scheme := range []string{"Global", "Rebound_NoDWB", "Rebound"} {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json",
				strings.NewReader(`{"app":"FFT","procs":4,"scheme":"`+scheme+`"}`))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < width; i++ {
		select {
		case <-tier.entered:
		case <-time.After(60 * time.Second):
			t.Fatalf("%d of %d distinct misses reached their push together", i, width)
		}
	}
	release()
	for i := 0; i < width; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("run miss answered %d, want 200", code)
		}
	}
	if n := srv.cfg.Runner.CachedRuns(); n != width {
		t.Fatalf("runner simulated %d cells, want %d", n, width)
	}
}

// TestCorruptRecordHeals: a stored record that exists but fails to
// decode is a miss, whether a sweep or a run asks for it: the cell is
// simulated again, and its record is overwritten with a verified one.
func TestCorruptRecordHeals(t *testing.T) {
	dir := t.TempDir()
	sweepCell := RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound"}
	runCell := RunRequest{App: "FFT", Procs: 4, Scheme: "none"}
	var keys []string
	for _, rr := range []RunRequest{sweepCell, runCell} {
		spec, err := rr.Spec(harness.Quick)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, store.KeyOf(spec))
		if err := os.WriteFile(filepath.Join(dir, store.KeyOf(spec)+".json"), []byte(`{"key":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := newServer(t, dir, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	var sweep SweepResponse
	if code, body := do(t, c, "POST", ts.URL+"/v1/sweeps", SweepRequest{Specs: []RunRequest{sweepCell}}, &sweep); code != 200 {
		t.Fatalf("sweep over a corrupt record: %d %s", code, body)
	}
	if sweep.Cached != 0 || sweep.Cells[0].Cached || sweep.Cells[0].Cycles == 0 {
		t.Fatalf("sweep over a corrupt record was not simulated: %+v", sweep)
	}
	var run RunResponse
	if code, body := do(t, c, "POST", ts.URL+"/v1/runs", runCell, &run); code != 200 {
		t.Fatalf("run over a corrupt record: %d %s", code, body)
	}
	if run.Cached || run.Record == nil || run.Record.Cycles == 0 {
		t.Fatalf("run over a corrupt record was not simulated: %+v", run)
	}

	// Both records on disk now decode and verify, in a fresh store too.
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, ok, err := st.Get(key); !ok || err != nil {
			t.Fatalf("record %s after healing: ok=%v err=%v", key, ok, err)
		}
	}
	if n := metricsMap(t, ts.URL)["store_errors"].(float64); n != 2 {
		t.Fatalf("store_errors = %v, want 2", n)
	}
}

// TestIfNoneMatchSemantics pins the RFC 9110 §13.1.2 conditional-GET
// behaviour of GET /v1/runs/{key}: the stored record's ETag must match
// quoted tags, weak tags, comma-separated candidate lists and "*" — a
// proxy revalidating through any standards-following client sends those
// forms, and serving a full 200 to them silently defeats the cache.
func TestIfNoneMatchSemantics(t *testing.T) {
	srv := newServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	var run RunResponse
	req := RunRequest{App: "FFT", Procs: 4, Scheme: "none"}
	if code, body := do(t, c, "POST", ts.URL+"/v1/runs", req, &run); code != 200 {
		t.Fatalf("run: %d %s", code, body)
	}
	key := run.Key
	quoted := `"` + key + `"`

	cases := []struct {
		name   string
		header string
		want   int
	}{
		{"quoted tag", quoted, http.StatusNotModified},
		{"weak tag", "W/" + quoted, http.StatusNotModified},
		{"wildcard", "*", http.StatusNotModified},
		{"wildcard padded", "  *  ", http.StatusNotModified},
		{"list with match", `"nope", ` + quoted, http.StatusNotModified},
		{"list with weak match", `"nope", W/` + quoted + `, "other"`, http.StatusNotModified},
		{"bare tag (sloppy client)", key, http.StatusNotModified},
		{"no header", "", http.StatusOK},
		{"mismatched tag", `"deadbeef"`, http.StatusOK},
		{"mismatched list", `"a", "b"`, http.StatusOK},
		{"substring must not match", `"` + key[:8] + `"`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			greq, err := http.NewRequest("GET", ts.URL+"/v1/runs/"+key, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				greq.Header.Set("If-None-Match", tc.header)
			}
			resp, err := c.Do(greq)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("If-None-Match %q: got %d, want %d", tc.header, resp.StatusCode, tc.want)
			}
			if et := resp.Header.Get("ETag"); et != quoted {
				t.Fatalf("ETag = %q, want %q", et, quoted)
			}
			if tc.want == http.StatusNotModified {
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				if buf.Len() != 0 {
					t.Fatalf("304 carried a %d-byte body", buf.Len())
				}
			}
		})
	}
}
