package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/store"
)

// The service workload is reboundd on one node: service.New with the
// daemon's defaults (a two-wide runner, an on-disk store, the quick
// scale) behind a loopback TCP server. Set-up primes 16 cells (8 apps
// under Rebound and Global, 4 processors). Two client connections then
// load it for the measured window:
//
//   - reads, an open loop at a fixed 200 requests/s, alternating
//     POST /v1/runs cache hits and GET /v1/runs/{key} over the primed
//     cells in seeded order. Reads stand for independent users, who do
//     not wait for each other, so each is timed from when it was due.
//   - simulations, a closed loop cycling through a run miss (a new
//     seeded cell of 2-8 processors), a campaign job (FFT, 4 processors,
//     16 trials, fresh seed; POST, then poll every 10 ms until done),
//     another run miss and, every fourth cycle, an exploration job. One
//     caller waits for each reply, as a user scripting the API would.
//
// The reads and the simulations share the host's cores, so a faster
// simulation path that starves reads shows up here.

const (
	readRate     = 200 // reads per second
	pollInterval = 10 * time.Millisecond
)

func runService(r *run) error {
	sc := harness.Quick
	sc.Seed = r.opts.seed
	rng := rand.New(rand.NewSource(int64(r.opts.seed)))
	primed := primedCells(rng)

	var st *store.Store
	var ts *httptest.Server
	var reads, batch *httpClient
	var keys []string
	setups := 0
	err := r.setup(3, func() (func(), error) {
		setups++
		var err error
		if st, err = store.Open(filepath.Join(r.dir, fmt.Sprintf("store-%d", setups)), 0); err != nil {
			return nil, err
		}
		srv, err := service.New(service.Config{Runner: harness.NewRunner(2), Store: st, Scale: sc})
		if err != nil {
			return nil, err
		}
		ts = httptest.NewServer(tracedHandler(r.tr, srv))
		reads, batch = newHTTPClient(ts.URL, r.tr), newHTTPClient(ts.URL, r.tr)
		cleanup := func() {
			reads.close()
			batch.close()
			ts.Close()
			srv.Close()
		}
		var sr service.SweepResponse
		if _, err := batch.doJSON(context.Background(), "POST /v1/sweeps (prime)", "POST", "/v1/sweeps",
			service.SweepRequest{Specs: primed}, &sr); err != nil {
			cleanup()
			return nil, err
		}
		keys = keys[:0]
		for _, c := range sr.Cells {
			keys = append(keys, c.Key)
		}
		return cleanup, nil
	})
	if err != nil {
		return err
	}
	if len(keys) != len(primed) {
		return fmt.Errorf("primed %d cells, want %d", len(keys), len(primed))
	}

	var readLat, lateMS, hitMS, getMS []float64
	var missMS, jobMS, postMS, pollMS, exploreMS []float64
	var batchOps int
	var batchEnd time.Time
	var firstCycle []string // records and reports of cycle 0: digest set
	var missStats []*stats.Stats
	var missCycles []uint64
	var rejected, requests int
	var mu sync.Mutex
	status := func(code int) {
		mu.Lock()
		requests++
		if code == http.StatusServiceUnavailable {
			rejected++
		}
		mu.Unlock()
	}

	order := rng.Perm(len(keys))
	r.begin()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := withLane(context.Background(), 1)
		ol := openLoop{start: r.start, period: time.Second / readRate}
		for i := 0; ; i++ {
			due := ol.due()
			if !due.Before(r.dl) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			k := order[(i/2)%len(order)]
			sent := time.Now()
			var code int
			var body []byte
			var err error
			var ok bool
			if i%2 == 0 {
				var resp struct {
					Key    string `json:"key"`
					Cached bool   `json:"cached"`
				}
				code, err = reads.doJSON(ctx, "POST /v1/runs (hit)", "POST", "/v1/runs", primed[k], &resp)
				ok = r.check(err == nil, "read %d: %v", i, err) &&
					r.check(resp.Cached && resp.Key == keys[k], "read %d: POST answered cached=%t key=%s", i, resp.Cached, resp.Key)
			} else {
				code, body, err = reads.do(ctx, "GET /v1/runs/{key}", "GET", "/v1/runs/"+keys[k], nil)
				var rec struct {
					Key string `json:"key"`
				}
				ok = r.check(err == nil && code == http.StatusOK, "read %d: GET: %d %v", i, code, err) &&
					r.check(json.Unmarshal(body, &rec) == nil && rec.Key == keys[k], "read %d: GET returned another record", i)
			}
			done := time.Now()
			status(code)
			r.op(ok)
			lat, late := openLoopSample(due, sent, done)
			readLat, lateMS = append(readLat, lat), append(lateMS, late)
			if i%2 == 0 {
				hitMS = append(hitMS, ms(done.Sub(sent)))
			} else {
				getMS = append(getMS, ms(done.Sub(sent)))
			}
		}
	}()

	used := make(map[string]bool)
	for _, k := range keys {
		used[k] = true
	}
	ctx := withLane(context.Background(), 2)
	for c := 0; c == 0 || !r.expired(); c++ {
		steps := []string{"miss", "campaign", "miss"}
		if c%4 == 0 {
			steps = append(steps, "explore")
		}
		for _, step := range steps {
			if c > 0 && r.expired() {
				break
			}
			t := time.Now()
			var ok bool
			var out string
			switch step {
			case "miss":
				rr := missCell(rng, sc, used)
				var resp service.RunResponse
				code, err := batch.doJSON(ctx, "POST /v1/runs (miss)", "POST", "/v1/runs", rr, &resp)
				status(code)
				ok = r.check(err == nil, "run miss: %v", err) &&
					r.check(!resp.Cached && resp.Record != nil, "run miss %v answered from the store", rr)
				if ok {
					missMS = append(missMS, ms(time.Since(t)))
					out = resp.Record.Snapshot
					if c == 0 {
						missStats = append(missStats, resp.Record.Stats)
						missCycles = append(missCycles, resp.Record.Cycles)
					}
				}
			case "campaign":
				req := service.CampaignRequest{RunRequest: service.RunRequest{App: "FFT", Procs: 4, Scheme: "Rebound"},
					Trials: 16, Faults: 2, Window: 60_000, Seed: r.opts.seed*1_000_000 + uint64(c)}
				var rep *campaign.Report
				rep, ok = runJob[service.CampaignResponse](r, ctx, batch, "/v1/campaigns", req, status, &postMS, &pollMS,
					func(cr service.CampaignResponse) (bool, string, *campaign.Report) {
						return cr.Status == "done", cr.Error, cr.Report
					})
				ok = ok && r.check(rep.VerifiedOK == rep.Trials && rep.Trials == req.Trials,
					"campaign job: %d/%d trials verified", rep.VerifiedOK, rep.Trials)
				if ok {
					jobMS = append(jobMS, ms(time.Since(t)))
					data, _ := json.Marshal(rep)
					out = string(data)
				}
			case "explore":
				req := service.ExploreRequest{App: "FFT", Procs: 4, Schemes: []string{"Rebound", "Rebound_2L"},
					Trials: 4, Seed: r.opts.seed*1_000_000 + uint64(c)}
				var rep *explore.FrontierReport
				rep, ok = runJob[service.ExploreResponse](r, ctx, batch, "/v1/explore", req, status, &postMS, &pollMS,
					func(er service.ExploreResponse) (bool, string, *explore.FrontierReport) {
						return er.Status == "done", er.Error, er.Report
					})
				if ok {
					exploreMS = append(exploreMS, ms(time.Since(t)))
					data, _ := json.Marshal(rep)
					out = string(data)
				}
			}
			r.op(ok)
			batchOps++
			batchEnd = time.Now()
			if c == 0 {
				firstCycle = append(firstCycle, step+"|"+out)
			}
		}
		if c == 0 {
			r.fixedDone()
		}
	}
	wg.Wait()
	r.stop()
	r.setE2E("ops_per_s", float64(batchOps)/batchEnd.Sub(r.start).Seconds())
	read := r.timing("service.read_ms", readLat)
	r.setE2E("p50_ms", read.P50)
	r.setLayer("service.read_ms_p90", read.P90)
	r.setLayer("service.read_ms_p99", read.P99)
	late := r.timing("bench.gen_late_ms", lateMS)
	r.setLayer("bench.gen_late_ms_p50", late.P50)
	r.setLayer("bench.gen_late_ms_p99", late.P99)
	r.setLayer("service.post_hit_ms_p50", r.timing("service.post_hit_ms", hitMS).P50)
	r.setLayer("service.get_run_ms_p50", r.timing("service.get_run_ms", getMS).P50)
	miss := r.timing("service.post_miss_ms", missMS)
	r.setLayer("service.post_miss_ms_p50", miss.P50)
	r.setLayer("service.post_miss_ms_p90", miss.P90)
	r.setLayer("service.campaign_job_ms_p50", r.timing("service.campaign_job_ms", jobMS).P50)
	r.setLayer("service.job_post_ms_p50", r.timing("service.job_post_ms", postMS).P50)
	r.setLayer("service.poll_ms_p50", r.timing("service.poll_ms", pollMS).P50)
	r.setLayer("explore.job_ms_p50", r.timing("explore.job_ms", exploreMS).P50)
	if requests > 0 {
		r.setLayer("service.rejected_pct", float64(rejected)/float64(requests)*100)
	}

	var m map[string]any
	if _, err := batch.doJSON(context.Background(), "GET /metrics", "GET", "/metrics", nil, &m); r.check(err == nil, "metrics: %v", err) {
		num := func(k string) float64 { f, _ := m[k].(float64); return f }
		r.setLayer("service.runner_cached_cells", num("runner_cached_cells"))
		r.setLayer("service.campaign_trials_done", num("campaign_trials_done"))
		r.setLayer("explore.cells_evaluated", num("explore_cells_evaluated"))
	}
	hits, misses := st.Counters()
	r.setLayer("store.hits", float64(hits))
	r.setLayer("store.misses", float64(misses))

	// The digest set: the primed records and the first cycle's outputs.
	var sts []*stats.Stats
	var cycles []uint64
	for _, key := range keys {
		var rec store.Record
		if _, err := batch.doJSON(context.Background(), "GET /v1/runs/{key}", "GET", "/v1/runs/"+key, nil, &rec); r.check(err == nil, "GET %s: %v", key, err) {
			r.addDigest(rec.Snapshot)
			sts, cycles = append(sts, rec.Stats), append(cycles, rec.Cycles)
		}
	}
	for _, s := range firstCycle {
		r.addDigest(s)
	}
	modelCounters(r, append(sts, missStats...), append(cycles, missCycles...))

	if r.tr != nil {
		// Direct reads of the store underneath GET /v1/runs/{key}.
		var rawUS []float64
		for i := 0; i < 200; i++ {
			key := keys[i%len(keys)]
			var ok bool
			var err error
			rawUS = append(rawUS, us(r.tr.timed(withLane(context.Background(), 3), "store", "Store.GetRaw", func(context.Context) {
				_, ok, err = st.GetRaw(key)
			})))
			r.check(ok && err == nil, "GetRaw %s: %v", key, err)
		}
		r.setLayer("store.get_raw_us_p50", r.timing("store.get_raw_us", rawUS).P50)
	}
	return nil
}

// runJob posts an asynchronous job (campaign or exploration) and polls
// it every pollInterval until it is done, returning its report.
func runJob[R any, Rep any](r *run, ctx context.Context, c *httpClient, path string, req any,
	status func(int), postMS, pollMS *[]float64, done func(R) (bool, string, *Rep)) (*Rep, bool) {
	var resp struct {
		Key string `json:"key"`
	}
	t := time.Now()
	code, err := c.doJSON(ctx, "POST "+path, "POST", path, req, &resp)
	status(code)
	*postMS = append(*postMS, ms(time.Since(t)))
	if !r.check(err == nil && code == http.StatusAccepted, "POST %s: %d %v", path, code, err) {
		return nil, false
	}
	for {
		time.Sleep(pollInterval)
		var pr R
		t := time.Now()
		code, err := c.doJSON(ctx, "GET "+path+"/{key}", "GET", path+"/"+resp.Key, nil, &pr)
		status(code)
		*pollMS = append(*pollMS, ms(time.Since(t)))
		if !r.check(err == nil, "poll %s: %v", path, err) {
			return nil, false
		}
		finished, msg, rep := done(pr)
		if !r.check(msg == "", "job %s/%s failed: %s", path, resp.Key, msg) {
			return nil, false
		}
		if finished {
			return rep, r.check(rep != nil, "job %s/%s done without a report", path, resp.Key)
		}
	}
}

// primedCells draws the 16 cells set-up primes: 8 distinct apps, each
// under Rebound and Global, on 4 processors.
func primedCells(rng *rand.Rand) []service.RunRequest {
	apps := harness.AppNames()
	var out []service.RunRequest
	for _, i := range rng.Perm(len(apps))[:8] {
		for _, scheme := range []string{"Rebound", "Global"} {
			out = append(out, service.RunRequest{App: apps[i], Procs: 4, Scheme: scheme})
		}
	}
	return out
}

// missCell draws a cell no earlier request has asked for: a random app
// and scheme on 2 to 8 processors. FFT on 4 processors is left out:
// the exploration jobs store those cells as a side effect.
func missCell(rng *rand.Rand, sc harness.Scale, used map[string]bool) service.RunRequest {
	apps, schemes := harness.AppNames(), harness.SchemeNames()
	for {
		rr := service.RunRequest{App: apps[rng.Intn(len(apps))], Procs: 2 + rng.Intn(7),
			Scheme: schemes[rng.Intn(len(schemes))]}
		spec, err := rr.Spec(sc)
		if err != nil || (rr.App == "FFT" && rr.Procs == 4) {
			continue
		}
		if key := store.KeyOf(spec); !used[key] {
			used[key] = true
			return rr
		}
	}
}
