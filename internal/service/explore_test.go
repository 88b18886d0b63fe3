package service

// End-to-end tests of the exploration endpoints: the async POST/GET
// loop on a single daemon, byte-identity of the FrontierReport across
// a daemon restart (and the zero-re-evaluation economics of the
// resume), and byte-identity when the same exploration runs on a
// coordinator+worker cluster instead.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// exploreBody is the canonical tiny exploration: two schemes at the
// scale's default interval, four trials per cell (halving rungs 1 and
// 4).
const exploreBody = `{"app":"FFT","procs":4,"schemes":["Rebound","Global_DWB"],` +
	`"trials":4,"faults":2,"window":60000,"seed":5}`

func postExplore(t *testing.T, url, body string) (ExploreResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var er ExploreResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return er, resp.StatusCode
}

// pollExplore polls GET /v1/explore/{key} until done, returning the
// decoded final response.
func pollExplore(t *testing.T, url, key string) ExploreResponse {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		resp, err := http.Get(url + "/v1/explore/" + key)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET explore: %d: %s", resp.StatusCode, data)
		}
		var er ExploreResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		switch er.Status {
		case "done":
			return er
		case "failed":
			t.Fatalf("exploration failed: %s", er.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("exploration did not finish: %s", data)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestExploreEndToEndAndRestart drives the full loop on one daemon,
// then restarts the daemon on the same store and shows the same POST
// is answered from disk — byte-identical report, zero cells evaluated.
func TestExploreEndToEndAndRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := newServer(t, dir, nil)
	ts1 := httptest.NewServer(srv1)

	first, code := postExplore(t, ts1.URL, exploreBody)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST status %d", code)
	}
	if first.Key == "" {
		t.Fatal("explore response has no key")
	}
	done := pollExplore(t, ts1.URL, first.Key)
	rep := done.Report
	if rep == nil {
		t.Fatal("done exploration carries no report")
	}
	if rep.GridTrials != 2*4 {
		t.Fatalf("grid trials = %d, want 8", rep.GridTrials)
	}
	if len(rep.Rungs) != 2 || rep.Rungs[0].Trials != 1 || rep.Rungs[1].Trials != 4 {
		t.Fatalf("halving rung schedule = %+v", rep.Rungs)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	repJSON, _ := json.Marshal(rep)

	// A second POST must be served from the store, byte-identically.
	again, code := postExplore(t, ts1.URL, exploreBody)
	if code != http.StatusOK {
		t.Fatalf("second POST status %d", code)
	}
	if again.Status != "done" || !again.Cached || again.Report == nil {
		t.Fatalf("second POST not served from store: %+v", again)
	}
	if aj, _ := json.Marshal(again.Report); string(aj) != string(repJSON) {
		t.Fatal("stored report differs from the first execution's")
	}

	// Exploration progress and economics are visible in /metrics.
	m := metricsMap(t, ts1.URL)
	for _, k := range []string{"explores_total", "explores_running",
		"explore_cells_done", "explore_cells_evaluated", "explore_cells_from_store"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("metrics missing %q: %v", k, m)
		}
	}
	if m["explores_total"].(float64) < 1 || m["explore_cells_evaluated"].(float64) < 1 {
		t.Fatalf("explore metrics did not advance: %v", m)
	}
	ts1.Close()

	// Restarted daemon, same store: the POST answers from disk without
	// evaluating a single cell, and the report bytes are unchanged.
	srv2 := newServer(t, dir, nil)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resumed, code := postExplore(t, ts2.URL, exploreBody)
	if code != http.StatusOK || !resumed.Cached {
		t.Fatalf("restarted POST status %d cached %v", code, resumed.Cached)
	}
	if rj, _ := json.Marshal(resumed.Report); string(rj) != string(repJSON) {
		t.Fatal("restarted daemon's report differs")
	}
	m2 := metricsMap(t, ts2.URL)
	if m2["explore_cells_evaluated"].(float64) != 0 || m2["explores_total"].(float64) != 0 {
		t.Fatalf("restarted daemon re-evaluated cells: %v", m2)
	}
}

// TestExploreClusterByteIdentity runs the same exploration on a
// single-node daemon and on a coordinator with one remote worker; the
// FrontierReports must be byte-identical, with the cluster's cell
// evaluations flowing through leases.
func TestExploreClusterByteIdentity(t *testing.T) {
	// Reference: single-node daemon.
	single := newServer(t, t.TempDir(), nil)
	ts1 := httptest.NewServer(single)
	cr, code := postExplore(t, ts1.URL, exploreBody)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("single POST: %d", code)
	}
	singleDone := pollExplore(t, ts1.URL, cr.Key)
	singleJSON, _ := json.Marshal(singleDone.Report)
	ts1.Close()

	// Cluster: coordinator plus one remote worker on a fresh store.
	srv, ts2 := newCoordinator(t, t.TempDir(), 0)
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	_, _, done := startWorker(t, wctx, ts2.URL, "explorer", nil)

	fr, code := postExplore(t, ts2.URL, exploreBody)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("fleet POST: %d", code)
	}
	if fr.Key != cr.Key {
		t.Fatalf("exploration key diverged: %s vs %s", fr.Key, cr.Key)
	}
	fleetDone := pollExplore(t, ts2.URL, fr.Key)
	if fleetJSON, _ := json.Marshal(fleetDone.Report); string(fleetJSON) != string(singleJSON) {
		t.Fatalf("cluster report is not byte-identical to the single-node report\nfleet:  %.300s\nsingle: %.300s",
			fleetJSON, singleJSON)
	}

	// The evaluations went through the cluster: campaign trials and
	// fault-free cells both flowed as leases.
	m := srv.Coordinator().Metrics()
	if m.TrialsRemote < 1 || m.CellsRemote < 1 {
		t.Fatalf("cluster carried no exploration work: trials=%d cells=%d",
			m.TrialsRemote, m.CellsRemote)
	}

	stop()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatal(err)
	}
}

func TestExploreValidation(t *testing.T) {
	ts := newCampaignTestServer(t)
	for _, body := range []string{
		`{"app":"FFT","procs":4,"schemes":["Rebound"]}`,                           // no trials
		`{"app":"FFT","procs":4,"schemes":["NoSuchScheme"],"trials":2}`,           // bad scheme
		`{"app":"NoSuchApp","procs":4,"schemes":["Rebound"],"trials":2}`,          // bad app
		`{"app":"FFT","procs":4,"schemes":["Rebound"],"trials":2,"strategy":"x"}`, // bad strategy
		`{"app":"FFT","procs":4,"trials":2}`,                                      // empty space
	} {
		if _, code := postExplore(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/explore/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown key: status %d, want 404", resp.StatusCode)
	}
}
