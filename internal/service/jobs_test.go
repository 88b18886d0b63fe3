package service

// Tests of the background-job lifecycle shared by campaigns and
// explorations: request-body strictness, key validation on GET,
// shared admission, dedup of concurrent identical POSTs, the failed
// tombstone, and the SubmitAndPoll client.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/store"
)

// smallCampaign is a two-trial campaign that finishes in about a
// second at quick scale.
const smallCampaign = `{"app":"FFT","procs":4,"scheme":"Rebound","trials":2,"faults":1,"window":60000,"seed":11}`

func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func getJob(t *testing.T, url string) (int, JobResponse[json.RawMessage]) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse[json.RawMessage]
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, jr
}

// awaitStatus polls url until the job reports want.
func awaitStatus(t *testing.T, url, want string) JobResponse[json.RawMessage] {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, jr := getJob(t, url)
		if code == http.StatusOK && jr.Status == want {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %d %+v, want status %q", url, code, jr, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDecodeJSONRejectsTrailingData(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"app":"FFT"}`, true},
		{`{"app":"FFT"}` + "\n", true},
		{`{"app":"FFT"}` + " \r\n\t ", true},
		{`{"app":"FFT"} {"garbage":`, false},
		{`{"app":"FFT"}{}`, false},
		{`{"app":"FFT"} }`, false},
		{`{"app":"FFT"} x`, false},
	} {
		r := httptest.NewRequest("POST", "/", strings.NewReader(tc.body))
		var rr RunRequest
		if err := decodeJSON(r, &rr); (err == nil) != tc.ok {
			t.Errorf("decodeJSON(%q) = %v, want ok=%v", tc.body, err, tc.ok)
		}
	}
}

// TestTrailingBytesAre400 sends an otherwise valid body followed by
// the start of a second value to every JSON endpoint: none may act on
// it.
func TestTrailingBytesAre400(t *testing.T) {
	_, ts := newCoordinator(t, t.TempDir(), 0)
	const trailer = ` {"garbage":`
	for path, body := range map[string]string{
		"/v1/runs":          `{"app":"FFT","procs":4,"scheme":"Rebound"}`,
		"/v1/sweeps":        `{"figure":"fig6.1"}`,
		"/v1/campaigns":     smallCampaign,
		"/v1/explore":       exploreBody,
		"/v1/cluster/lease": `{"worker_id":"w001"}`,
	} {
		code, resp := postRaw(t, ts.URL+path, body+trailer)
		if code != http.StatusBadRequest || !strings.Contains(resp, "trailing data") {
			t.Errorf("POST %s with trailing bytes: %d %s, want 400", path, code, resp)
		}
	}
	m := metricsMap(t, ts.URL)
	for _, k := range []string{"runs_total", "sweeps_total", "campaigns_total", "explores_total"} {
		if m[k].(float64) != 0 {
			t.Errorf("%s = %v after rejected requests, want 0", k, m[k])
		}
	}
}

func TestJobMalformedKeyIs404(t *testing.T) {
	ts := httptest.NewServer(newServer(t, t.TempDir(), nil))
	defer ts.Close()
	for _, tc := range []struct{ path, noun string }{
		{"/v1/campaigns/.hidden", "campaign"},
		{"/v1/campaigns/a%5Cb", "campaign"},
		{"/v1/campaigns/" + strings.Repeat("AB", 32), "campaign"},
		{"/v1/campaigns/" + strings.Repeat("ab", 31), "campaign"},
		{"/v1/explore/.x", "exploration"},
		{"/v1/explore/" + strings.Repeat("0g", 32), "exploration"},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), "no "+tc.noun+" stored under") {
			t.Errorf("GET %s: %d %s, want 404 no %s stored", tc.path, resp.StatusCode, data, tc.noun)
		}
	}
}

// heldTier is the in-process worker's LocalTier, except that every
// snapshot read and record write waits until gate is closed.
type heldTier struct {
	cluster.LocalTier
	gate chan struct{}
}

func (t *heldTier) GetSnapshot(key string) ([]byte, bool, error) {
	<-t.gate
	return t.LocalTier.GetSnapshot(key)
}

func (t *heldTier) PutSnapshot(key string, payload []byte) error {
	<-t.gate
	return t.LocalTier.PutSnapshot(key, payload)
}

func (t *heldTier) PutTrial(key string, i int, tr *campaign.Trial) error {
	<-t.gate
	return t.LocalTier.PutTrial(key, i, tr)
}

func (t *heldTier) PutRecord(rec *store.Record) error {
	<-t.gate
	return t.LocalTier.PutRecord(rec)
}

// holdWorker holds the in-process worker of the server built from cfg
// until the returned func is called: a submitted job is admitted and
// its units are leased, but none completes, because the worker waits
// at its first store access. Call it from newServer's mutate func.
func holdWorker(cfg *Config) (release func()) {
	tier := &heldTier{LocalTier: cluster.LocalTier{St: cfg.Store}, gate: make(chan struct{})}
	cfg.tier = tier
	var once sync.Once
	return func() { once.Do(func() { close(tier.gate) }) }
}

// TestJobAdmissionIsSharedAcrossKinds fills QueueDepth 1 with a
// running campaign; an exploration must then be turned away.
func TestJobAdmissionIsSharedAcrossKinds(t *testing.T) {
	var release func()
	srv := newServer(t, t.TempDir(), func(cfg *Config) {
		cfg.QueueDepth = 1
		release = holdWorker(cfg)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer release()

	cr, code := postCampaign(t, ts, smallCampaign)
	if code != http.StatusAccepted || cr.Status != StatusRunning {
		t.Fatalf("campaign POST: %d %+v, want 202 running", code, cr)
	}
	if _, code := postExplore(t, ts.URL, exploreBody); code != http.StatusServiceUnavailable {
		t.Fatalf("explore POST with the queue full: %d, want 503", code)
	}

	release()
	awaitStatus(t, ts.URL+"/v1/campaigns/"+cr.Key, StatusDone)
}

// TestConcurrentIdenticalPostsJoinOneJob races two POSTs of the same
// campaign: both answer with the one job's key, and only one campaign
// starts.
func TestConcurrentIdenticalPostsJoinOneJob(t *testing.T) {
	var release func()
	srv := newServer(t, t.TempDir(), func(cfg *Config) { release = holdWorker(cfg) })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer release()

	var wg sync.WaitGroup
	resps := make([]CampaignResponse, 2)
	codes := make([]int, 2)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], codes[i] = postCampaign(t, ts, smallCampaign)
		}(i)
	}
	wg.Wait()
	for i := range resps {
		if codes[i] != http.StatusAccepted || resps[i].Status != StatusRunning {
			t.Fatalf("POST %d: %d %+v, want 202 running", i, codes[i], resps[i])
		}
	}
	if resps[0].Key != resps[1].Key {
		t.Fatalf("keys differ: %s vs %s", resps[0].Key, resps[1].Key)
	}
	if n := metricsMap(t, ts.URL)["campaigns_total"].(float64); n != 1 {
		t.Fatalf("campaigns_total = %v, want 1", n)
	}

	release()
	awaitStatus(t, ts.URL+"/v1/campaigns/"+resps[0].Key, StatusDone)
}

// testRequest, testReport and testKind make a job kind whose runner
// the test drives: each run waits for a token on gate, then fails or
// stores its report in memory.
type testRequest struct {
	N    int  `json:"n"`
	Fail bool `json:"fail,omitempty"`
}

func (tr testRequest) Spec(harness.Scale) (testRequest, error) { return tr, nil }

type testReport struct {
	N int `json:"n"`
}

var errTestJob = errors.New("test job failed")

func testKind(srv *Server, gate chan struct{}) *jobKind[testRequest, testRequest, testReport] {
	var mu sync.Mutex
	stored := make(map[string]*testReport)
	keyOf := func(tr testRequest) string {
		sum := sha256.Sum256([]byte(fmt.Sprint(tr.N)))
		return hex.EncodeToString(sum[:])
	}
	k := &jobKind[testRequest, testRequest, testReport]{
		s: srv, path: "/v1/test-jobs", noun: "test job",
		keyOf: keyOf,
		load: func(key string) (*testReport, bool, error) {
			mu.Lock()
			defer mu.Unlock()
			rep, ok := stored[key]
			return rep, ok, nil
		},
		start: func(testRequest) int { return 1 },
		total: func(*testReport) int { return 1 },
		run: func(tr testRequest, onProgress func(done, total int)) (*testReport, error) {
			<-gate
			if tr.Fail {
				return nil, errTestJob
			}
			onProgress(1, 1)
			rep := &testReport{N: tr.N}
			mu.Lock()
			stored[keyOf(tr)] = rep
			mu.Unlock()
			return rep, nil
		},
		started: new(expvar.Int), running: new(expvar.Int), unitsDone: new(expvar.Int),
	}
	k.register()
	return k
}

// TestFailedJobTombstone: a failed job stays visible to GET with its
// error, holds no admission slot, and a re-POST restarts it.
func TestFailedJobTombstone(t *testing.T) {
	srv := newServer(t, t.TempDir(), func(cfg *Config) { cfg.QueueDepth = 1 })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gate := make(chan struct{})
	defer close(gate)
	k := testKind(srv, gate)
	url := ts.URL + k.path

	post := func(body string, want int) JobResponse[testReport] {
		t.Helper()
		code, data := postRaw(t, url, body)
		if code != want {
			t.Fatalf("POST %s: %d %s, want %d", body, code, data, want)
		}
		var jr JobResponse[testReport]
		json.Unmarshal([]byte(data), &jr)
		return jr
	}

	first := post(`{"n":1,"fail":true}`, http.StatusAccepted)
	if first.Status != StatusRunning {
		t.Fatalf("first POST: %+v, want running", first)
	}
	// One job running fills QueueDepth 1.
	post(`{"n":2,"fail":true}`, http.StatusServiceUnavailable)

	gate <- struct{}{}
	failed := awaitStatus(t, url+"/"+first.Key, StatusFailed)
	if failed.Error != errTestJob.Error() || failed.Report != nil {
		t.Fatalf("failed job: %+v, want error %q and no report", failed, errTestJob)
	}
	if n := k.running.Value(); n != 0 {
		t.Fatalf("running = %d after the failure, want 0", n)
	}

	// The tombstone holds no slot: another job is admitted.
	second := post(`{"n":2,"fail":true}`, http.StatusAccepted)
	gate <- struct{}{}
	awaitStatus(t, url+"/"+second.Key, StatusFailed)

	// A re-POST restarts the failed job.
	again := post(`{"n":1}`, http.StatusAccepted)
	if again.Key != first.Key || again.Status != StatusRunning || again.Error != "" {
		t.Fatalf("re-POST: %+v, want the same key running again", again)
	}
	if n := k.started.Value(); n != 3 {
		t.Fatalf("started = %d, want 3", n)
	}
	gate <- struct{}{}
	done := awaitStatus(t, url+"/"+first.Key, StatusDone)
	var rep testReport
	if !done.Cached || done.Done != 1 || done.Total != 1 || json.Unmarshal(*done.Report, &rep) != nil || rep.N != 1 {
		t.Fatalf("finished job: %+v", done)
	}
	if n := k.unitsDone.Value(); n != 1 {
		t.Fatalf("units done = %d, want 1", n)
	}
}

// TestSubmitAndPoll drives the client against the test kind: a
// successful job returns its report with progress at 100%, a failed
// one returns the server's error.
func TestSubmitAndPoll(t *testing.T) {
	srv := newServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gate := make(chan struct{})
	close(gate) // every run proceeds at once
	testKind(srv, gate)
	policy := retry.Policy{Attempts: 3}

	var last [2]int
	rep, err := SubmitAndPoll[testReport](ts.URL+"/", "/v1/test-jobs", testRequest{N: 7},
		time.Millisecond, policy, func(done, total int) { last = [2]int{done, total} })
	if err != nil || rep == nil || rep.N != 7 {
		t.Fatalf("SubmitAndPoll = %+v, %v; want report n=7", rep, err)
	}
	if last != [2]int{1, 1} {
		t.Fatalf("last progress = %v, want [1 1]", last)
	}

	_, err = SubmitAndPoll[testReport](ts.URL, "/v1/test-jobs", testRequest{N: 8, Fail: true},
		time.Millisecond, policy, func(int, int) {})
	if err == nil || !strings.Contains(err.Error(), "failed on the server: "+errTestJob.Error()) {
		t.Fatalf("SubmitAndPoll of a failing job: %v", err)
	}

	// A request the server rejects is an error once the policy's
	// attempts run out.
	_, err = SubmitAndPoll[testReport](ts.URL, "/v1/campaigns", CampaignRequest{},
		time.Millisecond, policy, func(int, int) {})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("SubmitAndPoll of an invalid campaign: %v", err)
	}
}
