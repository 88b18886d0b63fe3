package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/store"
)

// HTTPProtocol speaks the cluster protocol to a remote coordinator,
// backing off under the retry policy on transport failures.
type HTTPProtocol struct {
	base   string
	client *http.Client
	policy retry.Policy
}

// NewHTTPProtocol returns a Protocol over the coordinator at base
// (e.g. "http://host:8080"). client nil selects http.DefaultClient.
func NewHTTPProtocol(base string, client *http.Client, policy retry.Policy) *HTTPProtocol {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPProtocol{base: strings.TrimSuffix(base, "/"), client: client, policy: policy}
}

func (p *HTTPProtocol) Join(ctx context.Context, req JoinRequest) (out JoinResponse, err error) {
	err = p.post(ctx, "/v1/cluster/join", req, &out)
	return out, err
}

func (p *HTTPProtocol) Lease(ctx context.Context, req LeaseRequest) (out LeaseResponse, err error) {
	err = p.post(ctx, "/v1/cluster/lease", req, &out)
	return out, err
}

func (p *HTTPProtocol) Complete(ctx context.Context, req CompleteRequest) (out CompleteResponse, err error) {
	err = p.post(ctx, "/v1/cluster/complete", req, &out)
	return out, err
}

func (p *HTTPProtocol) Heartbeat(ctx context.Context, req HeartbeatRequest) (out HeartbeatResponse, err error) {
	err = p.post(ctx, "/v1/cluster/heartbeat", req, &out)
	return out, err
}

// post round-trips one JSON protocol call under the retry policy.
func (p *HTTPProtocol) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return p.policy.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			p.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := p.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return httpError(path, resp)
		}
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// WorkerConfig wires a Worker.
type WorkerConfig struct {
	// Proto is the coordinator connection: NewHTTPProtocol for a remote
	// coordinator, Direct for one in this process.
	Proto Protocol
	// Runner is the local execution pool trials and cells fan out on.
	Runner *harness.Runner
	// Tier is where snapshots are loaded from and records pushed to.
	Tier Tier
	// Name labels the worker in the coordinator's registry.
	Name string
	// Poll is the longest the worker asks the coordinator to hold a
	// lease request that finds no unit (rounded up to a millisecond);
	// 0 asks for the coordinator's cap, a quarter of the lease TTL.
	// The coordinator answers as soon as work appears, and the worker
	// asks again right after an empty answer.
	Poll time.Duration
	// ExitOnIdle makes Run return nil when the coordinator reports no
	// jobs at all — the in-process worker of every reboundd uses it,
	// and waits for the next job outside Run.
	ExitOnIdle bool
	// Logf, if set, observes worker-side failures (a trial that
	// panicked, a push that exhausted its retries). The worker carries
	// on and reports the failed units with their lease.
	Logf func(format string, args ...any)
}

// maxCachedRunners bounds the per-campaign TrialRunner cache: each
// holds a warmed machine pool, so an unbounded map would pin every
// campaign the worker ever touched in memory. Run also empties the
// cache whenever the coordinator reports no jobs at all.
const maxCachedRunners = 4

// Worker is the pull side of the cluster: it joins a coordinator,
// heartbeats, and loops leases — load-or-warm the campaign's shared
// snapshot (one store read on cold start), run the leased trials or
// cells on the local runner pool, push each record through the store
// tier, then report the lease complete. Push-then-claim ordering makes
// every failure mode safe: a worker that dies after pushing but before
// completing loses nothing (the coordinator's lease reaper finds the
// records in the store), and one that re-runs a unit writes the
// byte-identical record.
type Worker struct {
	cfg WorkerConfig

	id  atomic.Value // string, set at join
	ttl time.Duration

	draining atomic.Bool

	mu       sync.Mutex
	stopWait context.CancelFunc // ends the current Run's lease wait
	runners  map[string]*campaign.TrialRunner
	order    []string // runner insertion order, for eviction

	// slots holds a token per unit executing, across every lease in
	// flight; its capacity is the runner's width.
	slots chan struct{}

	trialsDone atomic.Int64
	cellsDone  atomic.Int64
	leasesRun  atomic.Int64
}

// NewWorker validates cfg and returns a Worker ready to Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Proto == nil {
		return nil, fmt.Errorf("cluster: worker needs a coordinator protocol")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("cluster: worker needs a runner")
	}
	if cfg.Tier == nil {
		return nil, fmt.Errorf("cluster: worker needs a store tier")
	}
	return &Worker{cfg: cfg, runners: make(map[string]*campaign.TrialRunner),
		slots: make(chan struct{}, max(cfg.Runner.Workers(), 1))}, nil
}

// ID returns the coordinator-assigned worker id ("" before join).
func (w *Worker) ID() string {
	if v := w.id.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Stats reports the worker's lifetime tallies: campaign trials run,
// sweep cells run, leases completed.
func (w *Worker) Stats() (trials, cells, leases int64) {
	return w.trialsDone.Load(), w.cellsDone.Load(), w.leasesRun.Load()
}

// Drain asks the worker to stop pulling new leases: a lease request
// waiting on the coordinator ends at once, Run finishes the leases in
// flight (if any), reports them, and returns nil. It is the graceful
// half of shutdown — cancel Run's context for the hard half.
func (w *Worker) Drain() {
	w.draining.Store(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopWait != nil {
		w.stopWait()
	}
}

// Run joins the coordinator and loops leases until the context is
// cancelled (hard stop: the leases in flight are cut short and
// expire) or Drain is invoked (graceful: the leases in flight complete
// first). Run returns only after every lease it started has ended.
// Transport hiccups back off under the protocol's retry policy; only
// an exhausted policy or cancellation returns.
func (w *Worker) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Join once: a worker re-entering Run (the ExitOnIdle loop) keeps
	// its identity, so the coordinator's registry does not churn.
	if w.ID() == "" {
		join, err := w.cfg.Proto.Join(ctx, JoinRequest{Name: w.cfg.Name, Procs: w.cfg.Runner.Workers()})
		if err != nil {
			return fmt.Errorf("cluster: join: %w", err)
		}
		w.id.Store(join.WorkerID)
		w.ttl = time.Duration(join.LeaseTTLMillis) * time.Millisecond
		if w.ttl <= 0 {
			w.ttl = DefaultLeaseTTL
		}
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		hb.Wait()
	}()

	// Lease requests, and waits for a busy pool to free up, run under
	// waitCtx, which Drain cancels, so a request the coordinator is
	// holding ends with the drain.
	waitCtx, stopWait := context.WithCancel(ctx)
	defer stopWait()
	w.mu.Lock()
	w.stopWait = stopWait
	w.mu.Unlock()

	// The worker takes a further lease while the units it holds are
	// fewer than the pool is wide, so one-cell jobs (run misses) fill
	// the pool side by side instead of queueing behind each other. The
	// leases' units share the worker's execution slots, so simulations
	// in flight never exceed the pool width.
	var (
		running sync.WaitGroup
		held    atomic.Int64             // units of the leases in flight
		freed   = make(chan struct{}, 1) // a lease in flight finished
	)
	defer running.Wait()
	procs := int64(w.cfg.Runner.Workers())
	req := LeaseRequest{WorkerID: w.ID(), WaitMillis: w.waitMillis(), ExitOnIdle: w.cfg.ExitOnIdle}
	for {
		if w.draining.Load() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if held.Load() >= procs {
			select {
			case <-freed:
			case <-waitCtx.Done():
			}
			continue
		}
		resp, err := w.cfg.Proto.Lease(waitCtx, req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if w.draining.Load() {
				return nil
			}
			return fmt.Errorf("cluster: lease: %w", err)
		}
		if resp.Lease == nil {
			if resp.Idle {
				// No job anywhere: the cached runners' warmed machines
				// would only pin memory until the next campaign.
				w.dropRunners()
				if w.cfg.ExitOnIdle {
					return nil
				}
			}
			continue
		}
		l, n := resp.Lease, int64(len(resp.Lease.Indices)+len(resp.Lease.Specs))
		held.Add(n)
		running.Add(1)
		go func() {
			defer running.Done()
			w.execute(ctx, l)
			held.Add(-n)
			select {
			case freed <- struct{}{}:
			default:
			}
		}()
	}
}

// waitMillis is the lease wait the worker asks for: Poll rounded up to
// a millisecond, or a quarter of the lease TTL when Poll is 0.
func (w *Worker) waitMillis() int64 {
	wait := w.cfg.Poll
	if wait <= 0 {
		wait = w.ttl / 4
	}
	return int64((wait + time.Millisecond - 1) / time.Millisecond)
}

// execute runs one lease's units and reports the completions and the
// failures (panicked trial, exhausted push); the coordinator returns
// both the failed and the unreported units to the pool. A worker
// stopped mid-lease reports no failures: its units were cut short, not
// failed.
func (w *Worker) execute(ctx context.Context, l *Lease) {
	req := CompleteRequest{WorkerID: w.ID(), LeaseID: l.ID, Job: l.Job}
	switch l.Kind {
	case KindCampaign:
		req.Indices, req.Failed = w.runCampaignLease(ctx, l)
	case KindSweep:
		req.Keys, req.Failed = w.runSweepLease(ctx, l)
	default:
		w.logf("cluster: lease %d: unknown kind %q", l.ID, l.Kind)
	}
	if ctx.Err() != nil {
		req.Failed = nil
	}
	if _, err := w.cfg.Proto.Complete(ctx, req); err != nil {
		// The records are already pushed; the coordinator's reaper will
		// recover them from the store when the lease expires.
		w.logf("cluster: complete lease %d: %v", l.ID, err)
		return
	}
	w.leasesRun.Add(1)
}

// runCampaignLease fans the leased trial indices across the runner
// pool: restore-from-snapshot, run, push. Returns the indices whose
// records were pushed successfully, sorted, and the failed ones.
func (w *Worker) runCampaignLease(ctx context.Context, l *Lease) (done []int, failed []UnitFailure) {
	if l.Campaign == nil {
		w.logf("cluster: lease %d: campaign lease without a spec", l.ID)
		return nil, nil
	}
	spec := *l.Campaign
	key := campaign.KeyOf(spec)
	runner := w.runnerFor(key, spec)

	var mu sync.Mutex
	w.cfg.Runner.FanOut(ctx, len(l.Indices), func(j int) {
		if !w.acquire(ctx) {
			return
		}
		defer w.release()
		i := l.Indices[j]
		tr, err := w.runTrial(runner, i)
		if err == nil {
			if err = w.cfg.Tier.PutTrial(key, i, &tr); err != nil {
				err = fmt.Errorf("push: %w", err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			w.logf("cluster: trial %d of %s: %v", i, key, err)
			failed = append(failed, UnitFailure{Index: i, Err: err.Error()})
			return
		}
		w.trialsDone.Add(1)
		done = append(done, i)
	})
	sort.Ints(done)
	return done, failed
}

// runTrial executes one trial, containing simulator panics the way the
// local engine does: a panicking trial fails its unit, not the worker.
func (w *Worker) runTrial(runner *campaign.TrialRunner, i int) (tr campaign.Trial, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return runner.Run(i)
}

// runSweepLease runs the leased sweep cells and pushes their records.
// Returns the record keys pushed successfully, sorted, and the failed
// cells.
func (w *Worker) runSweepLease(ctx context.Context, l *Lease) (keys []string, failed []UnitFailure) {
	var mu sync.Mutex
	w.cfg.Runner.FanOut(ctx, len(l.Specs), func(j int) {
		if !w.acquire(ctx) {
			return
		}
		defer w.release()
		spec := l.Specs[j]
		res, err := w.cfg.Runner.RunOne(ctx, spec)
		if err == nil {
			if err = w.cfg.Tier.PutRecord(store.FromResult(res)); err != nil {
				err = fmt.Errorf("push: %w", err)
			}
		}
		key := store.KeyOf(spec)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			w.logf("cluster: cell %s: %v", key, err)
			failed = append(failed, UnitFailure{Key: key, Err: err.Error()})
			return
		}
		w.cellsDone.Add(1)
		keys = append(keys, key)
	})
	sort.Strings(keys)
	return keys, failed
}

// acquire takes one of the worker's execution slots, waiting while
// the units of other leases fill them; false once ctx ends (the unit
// is then cut short, not run).
func (w *Worker) acquire(ctx context.Context) bool {
	select {
	case w.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (w *Worker) release() { <-w.slots }

// runnerFor returns the cached TrialRunner of a campaign, creating it
// on first use (that is where the one snapshot load happens) and
// evicting the oldest beyond maxCachedRunners.
func (w *Worker) runnerFor(key string, spec campaign.Spec) *campaign.TrialRunner {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r, ok := w.runners[key]; ok {
		return r
	}
	if len(w.order) >= maxCachedRunners {
		delete(w.runners, w.order[0])
		w.order = w.order[1:]
	}
	r := campaign.NewTrialRunnerStored(spec, w.cfg.Tier)
	w.runners[key] = r
	w.order = append(w.order, key)
	return r
}

// dropRunners empties the TrialRunner cache.
func (w *Worker) dropRunners() {
	w.mu.Lock()
	defer w.mu.Unlock()
	clear(w.runners)
	w.order = w.order[:0]
}

// heartbeatLoop renews the worker's leases at a third of the TTL.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	period := w.ttl / 3
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := w.cfg.Proto.Heartbeat(ctx, HeartbeatRequest{WorkerID: w.ID()}); err != nil &&
				ctx.Err() == nil {
				w.logf("cluster: heartbeat: %v", err)
			}
		}
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}
