package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/store"
)

// The cluster workload is reboundd as a coordinator (service.New with
// Role coordinator and a one-wide runner, whose in-process worker takes
// leases too) plus one remote cluster.Worker speaking HTTP to it
// (NewHTTPProtocol and NewRemoteStore, one-wide) in the same process.
// Set-up runs one 2-trial campaign per scheme (Rebound, Rebound_2L,
// Global_DWB on FFT with 16 processors) without the remote worker,
// which persists each scheme's warm snapshot. The measured window then
// cycles through the schemes, one 64-trial campaign at a time, through
// the coordinator. As in the campaign workload, the seed places the
// faults and the cells keep the quick scale's program seed. Every campaign is a cold start for
// the remote worker: its first trial waits for one snapshot read over
// the store proxy and a decode. The time to report and the remote
// worker's time to its first trial of each campaign are what a cluster
// user waits for. The remote worker lives for the whole run: a worker
// that leaves stays in the coordinator's count of live workers for
// three lease TTLs, and that count sizes the lease chunks, so a fresh
// worker per campaign would make the chunking drift over the run.

var clusterSchemes = []string{"Rebound", "Rebound_2L", "Global_DWB"}

func clusterCampaignReq(scheme string, trials int, seed uint64, smoke bool) service.CampaignRequest {
	procs := 16
	if smoke {
		procs = 4
	}
	return service.CampaignRequest{RunRequest: service.RunRequest{App: "FFT", Procs: procs, Scheme: scheme},
		Trials: trials, Faults: 2, Window: 60_000, Seed: seed}
}

func runCluster(r *run) error {
	sc := harness.Quick
	schemes, trials := clusterSchemes, 64
	if r.opts.smoke {
		schemes, trials = schemes[:1], 8
	}
	var srv *service.Server
	var ts *httptest.Server
	var client *httpClient
	setups := 0
	err := r.setup(3, func() (func(), error) {
		setups++
		st, err := store.Open(filepath.Join(r.dir, fmt.Sprintf("store-%d", setups)), 0)
		if err != nil {
			return nil, err
		}
		// A 3 s lease TTL (the default is 15 s) makes workers heartbeat
		// every second, so heartbeats happen within a campaign.
		srv, err = service.New(service.Config{Runner: harness.NewRunner(1), Store: st, Scale: sc,
			Role: service.RoleCoordinator, LeaseTTL: 3 * time.Second})
		if err != nil {
			return nil, err
		}
		ts = httptest.NewServer(tracedHandler(r.tr, srv))
		client = newHTTPClient(ts.URL, r.tr)
		cleanup := func() {
			client.close()
			ts.Close()
			srv.Close()
		}
		for _, scheme := range schemes {
			if _, err := clusterCampaign(context.Background(), client, clusterCampaignReq(scheme, 2, 0, r.opts.smoke)); err != nil {
				cleanup()
				return nil, err
			}
		}
		return cleanup, nil
	})
	if err != nil {
		return err
	}

	var reportMS, firstMS []float64
	var coldStarts, snapReads, remoteTrials, remoteLeases, nTrials int
	var firstRound []*campaign.Report
	var firstSpecs []service.CampaignRequest
	calls := &callTimes{r: r, ms: make(map[string][]float64)}
	w, wtier, stopWorker := startWorker(r, withLane(context.Background(), 2), ts.URL, calls)
	defer stopWorker()
	for deadline := time.Now().Add(10 * time.Second); w.ID() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("remote worker did not join")
		}
	}
	r.begin()
	for k := 0; k < len(schemes) || !r.expired(); k++ {
		scheme := schemes[k%len(schemes)]
		req := clusterCampaignReq(scheme, trials, r.opts.seed*1000+uint64(k), r.opts.smoke)
		trials0, _, leases0 := w.Stats()
		reads0 := wtier.SnapshotReads()
		ctx, end := r.tr.begin(withLane(context.Background(), 1), "cluster", "campaign "+scheme)
		stopWatch := watchFirstTrial(w, trials0, time.Now())
		t := time.Now()
		rep, err := clusterCampaign(ctx, client, req)
		reportMS = append(reportMS, ms(time.Since(t)))
		end()
		if d := stopWatch(); d > 0 {
			firstMS = append(firstMS, ms(d))
		}
		wt, _, wl := w.Stats()
		ok := r.check(err == nil, "cluster campaign %d: %v", k, err)
		if ok {
			ok = r.check(rep.VerifiedOK == rep.Trials && rep.Trials == trials,
				"cluster campaign %d: %d/%d trials verified", k, rep.VerifiedOK, rep.Trials)
			nTrials += rep.Trials
		}
		for i := 0; i < trials; i++ {
			r.op(ok)
		}
		reads := int(wtier.SnapshotReads() - reads0)
		if wt > trials0 {
			coldStarts++
			snapReads += reads
			r.check(reads == 1, "campaign %d: the remote worker read the snapshot %d times, want 1", k, reads)
		}
		remoteTrials += int(wt - trials0)
		remoteLeases += int(wl - leases0)
		if k < len(schemes) && ok {
			firstRound = append(firstRound, rep)
			firstSpecs = append(firstSpecs, req)
		}
		if k == len(schemes)-1 {
			r.fixedDone()
		}
	}
	elapsed := r.stop()
	r.setE2E("ops_per_s", float64(nTrials)/elapsed)
	r.setE2E("p50_ms", r.timing("cluster.report_ms", reportMS).P50)
	r.setLayer("cluster.first_trial_ms_p50", r.timing("cluster.first_trial_ms", firstMS).P50)
	r.check(coldStarts > 0, "the remote worker ran no trial")
	if coldStarts > 0 {
		r.setLayer("cluster.snapshot_reads_per_cold_start", float64(snapReads)/float64(coldStarts))
	}
	if nTrials > 0 {
		r.setLayer("cluster.remote_share_pct", float64(remoteTrials)/float64(nTrials)*100)
	}
	r.setLayer("cluster.leases", float64(remoteLeases))
	if remoteLeases > 0 {
		r.setLayer("cluster.trials_per_lease", float64(remoteTrials)/float64(remoteLeases))
	}
	r.setLayer("cluster.leases_expired", float64(srv.Coordinator().Metrics().LeasesExpired))
	r.setLayer("cluster.join_ms", calls.p50("Join", "cluster.join_ms"))
	r.setLayer("cluster.lease_ms_p50", calls.p50("Lease", "cluster.lease_ms"))
	r.setLayer("cluster.complete_ms_p50", calls.p50("Complete", "cluster.complete_ms"))
	r.setLayer("cluster.heartbeat_ms_p50", calls.p50("Heartbeat", "cluster.heartbeat_ms"))
	r.setLayer("store.proxy_get_snapshot_ms", calls.p50("GetSnapshot", "store.proxy_get_snapshot_ms"))
	r.setLayer("store.proxy_put_trial_ms_p50", calls.p50("PutTrial", "store.proxy_put_trial_ms"))

	for _, rep := range firstRound {
		data, _ := json.Marshal(rep)
		r.addDigest(string(data))
	}
	if r.tr != nil && len(firstRound) > 0 {
		// The fleet's report must be byte-identical to a single-node
		// run of the same campaign.
		spec, err := firstSpecs[0].Spec(sc)
		if r.check(err == nil, "spec: %v", err) {
			local, err := campaign.New(harness.NewRunner(1), nil).Run(context.Background(), spec)
			a, _ := json.Marshal(firstRound[0])
			b, _ := json.Marshal(local)
			r.check(err == nil && bytes.Equal(a, b), "cluster report differs from a single-node run (%v)", err)
		}
	}
	return nil
}

// clusterCampaign posts a campaign to the coordinator and polls until
// it is done.
func clusterCampaign(ctx context.Context, c *httpClient, req service.CampaignRequest) (*campaign.Report, error) {
	var resp service.CampaignResponse
	if _, err := c.doJSON(ctx, "POST /v1/campaigns", "POST", "/v1/campaigns", req, &resp); err != nil {
		return nil, err
	}
	for resp.Status == "running" {
		time.Sleep(pollInterval)
		if _, err := c.doJSON(ctx, "GET /v1/campaigns/{key}", "GET", "/v1/campaigns/"+resp.Key, nil, &resp); err != nil {
			return nil, err
		}
	}
	if resp.Status != "done" || resp.Report == nil {
		return nil, fmt.Errorf("campaign %s: status %q: %s", resp.Key, resp.Status, resp.Error)
	}
	return resp.Report, nil
}

// startWorker joins a remote worker to the coordinator at url and
// returns it, its store tier, and a function that drains it and waits
// for it to exit. The worker's protocol and store proxy share one HTTP
// connection.
func startWorker(r *run, ctx context.Context, url string, calls *callTimes) (*cluster.Worker, cluster.Tier, func()) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	policy := retry.Policy{Attempts: 8, Jitter: 0.5, Seed: 1}
	wt := tierCalls{calls, cluster.NewRemoteStore(url, hc, policy), ctx}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Proto:  protoCalls{calls, cluster.NewHTTPProtocol(url, hc, policy)},
		Runner: harness.NewRunner(1),
		Tier:   wt,
		Name:   "bench",
		Poll:   5 * time.Millisecond,
		Logf:   func(format string, args ...any) { r.check(false, "remote worker: "+format, args...) },
	})
	if err != nil {
		panic(err) // every field above is set
	}
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- w.Run(wctx) }()
	var once sync.Once
	return w, wt, func() {
		once.Do(func() {
			w.Drain()
			select {
			case err := <-done:
				r.check(err == nil, "remote worker: %v", err)
			case <-time.After(30 * time.Second):
				r.check(false, "remote worker did not drain")
				cancel()
				<-done
			}
			cancel()
			hc.CloseIdleConnections()
		})
	}
}

// watchFirstTrial polls the worker until it has finished more than
// base trials. The returned function stops the watch and reports how
// long after start that trial finished, or 0 if it never did.
func watchFirstTrial(w *cluster.Worker, base int64, start time.Time) func() time.Duration {
	stop := make(chan struct{})
	out := make(chan time.Duration, 1)
	go func() {
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		for {
			if trials, _, _ := w.Stats(); trials > base {
				out <- time.Since(start)
				return
			}
			select {
			case <-stop:
				out <- 0
				return
			case <-t.C:
			}
		}
	}()
	return func() time.Duration {
		close(stop)
		return <-out
	}
}

// callTimes records the duration of every call made through the
// protocol and tier wrappers below, by call name, and traces each call
// as a span.
type callTimes struct {
	r  *run
	mu sync.Mutex
	ms map[string][]float64
}

func (t *callTimes) call(ctx context.Context, layer, name string, fn func(context.Context)) {
	d := t.r.tr.timed(ctx, layer, name, fn)
	t.mu.Lock()
	t.ms[name] = append(t.ms[name], ms(d))
	t.mu.Unlock()
}

// p50 records the named call's durations as timing metric and returns
// their median.
func (t *callTimes) p50(name, metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.r.timing(metric, t.ms[name]).P50
}

// protoCalls times a worker's cluster protocol calls as "cluster" spans.
type protoCalls struct {
	t *callTimes
	p cluster.Protocol
}

func (c protoCalls) Join(ctx context.Context, req cluster.JoinRequest) (out cluster.JoinResponse, err error) {
	c.t.call(ctx, "cluster", "Join", func(ctx context.Context) { out, err = c.p.Join(ctx, req) })
	return out, err
}

func (c protoCalls) Lease(ctx context.Context, req cluster.LeaseRequest) (out cluster.LeaseResponse, err error) {
	c.t.call(ctx, "cluster", "Lease", func(ctx context.Context) { out, err = c.p.Lease(ctx, req) })
	return out, err
}

func (c protoCalls) Complete(ctx context.Context, req cluster.CompleteRequest) (out cluster.CompleteResponse, err error) {
	c.t.call(ctx, "cluster", "Complete", func(ctx context.Context) { out, err = c.p.Complete(ctx, req) })
	return out, err
}

func (c protoCalls) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (out cluster.HeartbeatResponse, err error) {
	c.t.call(ctx, "cluster", "Heartbeat", func(ctx context.Context) { out, err = c.p.Heartbeat(ctx, req) })
	return out, err
}

// tierCalls times a worker's store-proxy calls as "store" spans. The
// Tier interface carries no context, so the spans go under the context
// the tier was wrapped with.
type tierCalls struct {
	t    *callTimes
	tier cluster.Tier
	ctx  context.Context
}

func (c tierCalls) GetSnapshot(key string) (payload []byte, ok bool, err error) {
	c.t.call(c.ctx, "store", "GetSnapshot", func(context.Context) { payload, ok, err = c.tier.GetSnapshot(key) })
	return payload, ok, err
}

func (c tierCalls) PutSnapshot(key string, payload []byte) (err error) {
	c.t.call(c.ctx, "store", "PutSnapshot", func(context.Context) { err = c.tier.PutSnapshot(key, payload) })
	return err
}

func (c tierCalls) PutTrial(key string, index int, tr *campaign.Trial) (err error) {
	c.t.call(c.ctx, "store", "PutTrial", func(context.Context) { err = c.tier.PutTrial(key, index, tr) })
	return err
}

func (c tierCalls) PutRecord(rec *store.Record) (err error) {
	c.t.call(c.ctx, "store", "PutRecord", func(context.Context) { err = c.tier.PutRecord(rec) })
	return err
}

func (c tierCalls) SnapshotReads() uint64 { return c.tier.SnapshotReads() }
