package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/store"
)

// Config wires a Coordinator. Store is required: it is the shared tier
// workers read snapshots from and push records into (directly in
// shared-dir mode, through the service's /v1/store proxy otherwise).
type Config struct {
	Store *store.Store
	// LeaseTTL is how long a lease survives without a heartbeat; 0
	// selects 15s. Tests shrink it to exercise expiry.
	LeaseTTL time.Duration
	// MaxChunk bounds the units per lease; 0 selects 32.
	MaxChunk int
	// Now overrides the clock, for deterministic expiry tests.
	Now func() time.Time
}

// DefaultLeaseTTL is the lease lifetime when Config leaves it zero.
const DefaultLeaseTTL = 15 * time.Second

// Unit states within a job.
const (
	unitTodo = iota
	unitLeased
	unitDone
)

// MaxUnitFailures is how many failure reports one unit may collect
// before its job fails with the last one. A unit's simulation is a
// pure function of the unit, so a failure that repeats is final; the
// retries absorb a failed push or snapshot load on a remote worker.
const MaxUnitFailures = 3

// Job is one submitted campaign or sweep, tracked unit by unit. The
// submitter waits on Done; progress and the final error are readable
// any time after.
type Job struct {
	key  string
	kind string

	camp campaign.Spec    // kind == KindCampaign
	ns   *store.Namespace // the campaign's trial namespace

	specs    []harness.Spec // kind == KindSweep, deduped
	cellKeys []string       // store key per cell
	byKey    map[string]int // cell key -> unit index

	onProgress func(done, total int)

	resumed int // units found done in the store at submission

	mu    sync.Mutex
	state []uint8
	done  int
	fails map[int]int // failure reports per unit

	finishOnce sync.Once
	finished   chan struct{}
	err        error
}

// Key returns the job's identity: the campaign content key, or the
// sweep's derived key.
func (j *Job) Key() string { return j.key }

// Done is closed when every unit is complete, when a unit failed
// MaxUnitFailures times, or when the finish step failed; check Err.
func (j *Job) Done() <-chan struct{} { return j.finished }

// Err reports the terminal error, valid after Done is closed.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Resumed reports how many units were already done, found in the
// store, when the job was submitted.
func (j *Job) Resumed() int { return j.resumed }

// Progress reports completed units out of total.
func (j *Job) Progress() (done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done, len(j.state)
}

// lease is one outstanding claim.
type lease struct {
	id       uint64
	worker   string
	job      *Job
	units    []int
	deadline time.Time
}

type workerState struct {
	id       string
	procs    int
	lastSeen time.Time
}

// Coordinator owns the cluster's work state: submitted jobs, the lease
// table, and worker liveness. It is transport-agnostic — the service
// layer maps the HTTP endpoints onto its methods — and safe for
// concurrent use.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    map[string]*Job
	order   []string // job scheduling order (FIFO)
	leases  map[uint64]*lease
	nextID  uint64
	nextWkr uint64
	// changed is closed and replaced (signalLocked) whenever a unit may
	// have become claimable or the job set changed; waiting leases and
	// the service's idle in-process worker sleep on it.
	changed chan struct{}

	// progress queues deferred onProgress calls; its own lock so
	// markDone can enqueue from under either c.mu or a job lock.
	progressMu sync.Mutex
	progress   []func()

	workersJoined atomic.Int64
	leasesGranted atomic.Int64
	leasesExpired atomic.Int64
	trialsRemote  atomic.Int64
	cellsRemote   atomic.Int64
}

// New returns a Coordinator over the shared store.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: Config.Store is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = 32
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		jobs:    make(map[string]*Job),
		leases:  make(map[uint64]*lease),
		changed: make(chan struct{}),
	}, nil
}

// Changed returns a channel that is closed at the coordinator's next
// change: a job submitted or finished, or a unit returned to the pool
// (unclaimed, failed or reaped). Take it before reading the state it
// guards, so a change in between is not missed.
func (c *Coordinator) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.changed
}

// signalLocked wakes everyone waiting on Changed. Called with c.mu held.
func (c *Coordinator) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// LeaseTTL reports the configured lease lifetime.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// MetricsSnapshot is the coordinator's counter set for /metrics.
type MetricsSnapshot struct {
	WorkersJoined int64 // join calls accepted
	LiveWorkers   int64 // workers heard from within the liveness window
	LeasesActive  int64 // leases outstanding right now
	LeasesExpired int64 // leases reclaimed after TTL expiry
	TrialsRemote  int64 // campaign trials completed by workers
	CellsRemote   int64 // sweep cells completed by workers
}

// Metrics returns a consistent snapshot of the coordinator's counters.
func (c *Coordinator) Metrics() MetricsSnapshot {
	c.mu.Lock()
	active := int64(len(c.leases))
	c.mu.Unlock()
	return MetricsSnapshot{
		WorkersJoined: c.workersJoined.Load(),
		LiveWorkers:   int64(c.LiveWorkers()),
		LeasesActive:  active,
		LeasesExpired: c.leasesExpired.Load(),
		TrialsRemote:  c.trialsRemote.Load(),
		CellsRemote:   c.cellsRemote.Load(),
	}
}

// LiveWorkers counts workers heard from within three lease TTLs.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.cfg.Now().Add(-3 * c.cfg.LeaseTTL)
	n := 0
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			n++
		}
	}
	return n
}

// --- job submission --------------------------------------------------------

// SubmitCampaign registers spec's trials for distributed execution and
// returns its Job. Trials already persisted in the store (an earlier
// run, an interrupted campaign, another node) are recognized and
// counted done, so a resumed distributed campaign re-runs only the
// missing indices — exactly like the local engine. Submitting a
// campaign already in flight joins the existing Job. onProgress, if
// non-nil, observes completed units out of total (it is retained only
// by the first submission of a key).
func (c *Coordinator) SubmitCampaign(spec campaign.Spec, onProgress func(done, total int)) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key := campaign.KeyOf(spec)
	ns, err := campaign.TrialNamespace(c.cfg.Store, key)
	if err != nil {
		return nil, err
	}

	if j := c.job(key); j != nil {
		return j, nil
	}

	// Scan the store for already-valid trials outside the lock: disk
	// reads must not stall lease traffic.
	j := &Job{
		key:        key,
		kind:       KindCampaign,
		camp:       spec,
		ns:         ns,
		onProgress: onProgress,
		state:      make([]uint8, spec.Trials),
		finished:   make(chan struct{}),
	}
	for i := 0; i < spec.Trials; i++ {
		var tr campaign.Trial
		if ok, err := ns.GetJSON(campaign.TrialRecordName(i), &tr); err == nil && ok &&
			campaign.ValidTrial(spec, i, &tr) {
			j.state[i] = unitDone
			j.done++
		}
	}
	return c.install(j)
}

// SubmitSweep registers the sweep cells for distributed execution and
// returns its Job; joined reports that the Job was already in flight.
// Cells whose records are stored and read back intact are counted
// done; a record that fails to decode or verify is re-run, which heals
// it. Duplicate specs collapse into one unit.
func (c *Coordinator) SubmitSweep(specs []harness.Spec) (j *Job, joined bool, err error) {
	if j, err = sweepJob(specs); err != nil {
		return nil, false, err
	}
	if existing := c.job(j.key); existing != nil {
		return existing, true, nil
	}
	for i, ck := range j.cellKeys {
		if _, ok, err := c.cfg.Store.Get(ck); ok && err == nil {
			j.state[i] = unitDone
			j.done++
		}
	}
	installed, err := c.install(j)
	return installed, installed != j, err
}

// SweepInFlight reports whether a sweep over specs would join a job
// already in flight rather than start one.
func (c *Coordinator) SweepInFlight(specs []harness.Spec) bool {
	j, err := sweepJob(specs)
	return err == nil && c.job(j.key) != nil
}

// sweepJob builds the unsubmitted job of a sweep: its validated,
// deduplicated cells and the key derived from them.
func sweepJob(specs []harness.Spec) (*Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: sweep with no cells")
	}
	j := &Job{kind: KindSweep, byKey: make(map[string]int), finished: make(chan struct{})}
	h := sha256.New()
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		key := store.KeyOf(spec)
		if _, dup := j.byKey[key]; dup {
			continue
		}
		j.byKey[key] = len(j.specs)
		j.specs = append(j.specs, spec)
		j.cellKeys = append(j.cellKeys, key)
		fmt.Fprintf(h, "%s\n", key)
	}
	j.key = "sweep-" + hex.EncodeToString(h.Sum(nil))
	j.state = make([]uint8, len(j.specs))
	return j, nil
}

// job returns the in-flight job under key, or nil.
func (c *Coordinator) job(key string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[key]
}

// install publishes a prepared job, resolving the race where two
// submitters prepared the same key concurrently (first one wins).
// A job with nothing left to do finishes immediately.
func (c *Coordinator) install(j *Job) (*Job, error) {
	j.resumed = j.done
	c.mu.Lock()
	if existing, ok := c.jobs[j.key]; ok {
		c.mu.Unlock()
		return existing, nil
	}
	c.jobs[j.key] = j
	c.order = append(c.order, j.key)
	complete := j.done == len(j.state)
	c.signalLocked()
	c.mu.Unlock()
	if complete {
		c.finishJob(j, nil)
	}
	return j, nil
}

// --- worker-facing protocol ------------------------------------------------

// Join registers a worker and returns its identity and the lease TTL.
func (c *Coordinator) Join(req JoinRequest) JoinResponse {
	c.mu.Lock()
	c.nextWkr++
	id := fmt.Sprintf("w%03d", c.nextWkr)
	if req.Name != "" {
		id = fmt.Sprintf("%s-%s", id, req.Name)
	}
	procs := req.Procs
	if procs <= 0 {
		procs = 1
	}
	c.workers[id] = &workerState{id: id, procs: procs, lastSeen: c.cfg.Now()}
	c.mu.Unlock()
	c.workersJoined.Add(1)
	return JoinResponse{WorkerID: id, LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds()}
}

// touch records worker liveness, registering unknown IDs implicitly so
// a restarted coordinator does not strand its fleet.
func (c *Coordinator) touch(id string) *workerState {
	w, ok := c.workers[id]
	if !ok {
		w = &workerState{id: id, procs: 1}
		c.workers[id] = w
	}
	w.lastSeen = c.cfg.Now()
	return w
}

// Lease hands the worker a claim on a slice of the oldest job with
// work remaining, or answers at once with none. Expired leases are
// reaped here (lazily — the coordinator has no background timers), so
// a dead worker's units return to the pool the moment a live worker
// asks.
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	resp, _, _ := c.lease(req)
	return resp
}

// LeaseWait is Lease for a worker that would rather wait than hear
// "nothing yet". An empty answer is held until a unit may have become
// claimable or the job set changed (Changed), the earliest outstanding
// lease deadline passes (the waiter then reaps that lease on time),
// req.WaitMillis passes (clamped to [0, LeaseTTL/4]), or ctx ends. An
// Idle answer returns at once when req.ExitOnIdle is set; otherwise
// the wait goes on through an idle cluster, so the next submission
// wakes the worker.
func (c *Coordinator) LeaseWait(ctx context.Context, req LeaseRequest) LeaseResponse {
	end := time.Now().Add(c.waitCap(req.WaitMillis))
	for {
		resp, changed, reapIn := c.lease(req)
		left := time.Until(end)
		if resp.Lease != nil || left <= 0 || resp.Idle && req.ExitOnIdle {
			return resp
		}
		if reapIn > 0 && reapIn < left {
			left = reapIn
		}
		t := time.NewTimer(left)
		select {
		case <-changed:
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return resp
		}
		t.Stop()
	}
}

// waitCap clamps a requested lease wait, which arrives from the
// network, to [0, LeaseTTL/4].
func (c *Coordinator) waitCap(ms int64) time.Duration {
	limit := c.cfg.LeaseTTL / 4
	if ms <= 0 {
		return 0
	}
	if ms >= limit.Milliseconds() {
		return limit
	}
	return time.Duration(ms) * time.Millisecond
}

// lease is one attempt of Lease. It also returns, taken under the same
// lock, the change signal to wait on and how long until the earliest
// outstanding lease deadline has passed (0 when no lease is out).
func (c *Coordinator) lease(req LeaseRequest) (resp LeaseResponse, changed <-chan struct{}, reapIn time.Duration) {
	c.mu.Lock()
	w := c.touch(req.WorkerID)
	touched := c.reapLocked()
	now := c.cfg.Now()

	live := 0
	cutoff := now.Add(-3 * c.cfg.LeaseTTL)
	for _, ws := range c.workers {
		if ws.lastSeen.After(cutoff) {
			live++
		}
	}
	if live < 1 {
		live = 1
	}

	for _, key := range c.order {
		j := c.jobs[key]
		if j == nil {
			continue
		}
		units := c.claimLocked(j, w, live)
		if len(units) == 0 {
			continue
		}
		c.nextID++
		l := &lease{id: c.nextID, worker: w.id, job: j,
			units: units, deadline: now.Add(c.cfg.LeaseTTL)}
		c.leases[l.id] = l
		c.leasesGranted.Add(1)
		resp.Lease = c.leasePayload(l)
		break
	}
	resp.Idle = len(c.jobs) == 0
	changed = c.changed
	var next time.Time
	for _, l := range c.leases {
		if next.IsZero() || l.deadline.Before(next) {
			next = l.deadline
		}
	}
	if !next.IsZero() {
		// Reaping needs now past the deadline; the millisecond makes
		// sure it is.
		reapIn = next.Sub(now) + time.Millisecond
	}
	c.mu.Unlock()

	// Settle reap fallout outside the lock: a reclaimed unit whose
	// record was recovered from the store may have completed its job.
	for _, j := range touched {
		c.maybeFinish(j)
	}
	c.flushProgress()
	return resp, changed, reapIn
}

// claimLocked takes up to one chunk of j's todo units for worker w.
// Chunk size shrinks as the job drains — max(procs, todo/(2*live))
// capped at MaxChunk — so the tail of a campaign spreads across the
// fleet instead of parking on one worker (the work-stealing shape:
// small final chunks mean an idle worker always finds something to
// take).
func (c *Coordinator) claimLocked(j *Job, w *workerState, live int) (units []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	todo := 0
	for _, s := range j.state {
		if s == unitTodo {
			todo++
		}
	}
	if todo == 0 {
		return nil
	}
	chunk := todo / (2 * live)
	if chunk < w.procs {
		chunk = w.procs
	}
	if chunk > c.cfg.MaxChunk {
		chunk = c.cfg.MaxChunk
	}
	if chunk > todo {
		chunk = todo
	}
	for i := range j.state {
		if len(units) == chunk {
			break
		}
		if j.state[i] == unitTodo {
			j.state[i] = unitLeased
			units = append(units, i)
		}
	}
	return units
}

// leasePayload renders the wire form of a lease.
func (c *Coordinator) leasePayload(l *lease) *Lease {
	out := &Lease{ID: l.id, Job: l.job.key, Kind: l.job.kind}
	switch l.job.kind {
	case KindCampaign:
		spec := l.job.camp
		out.Campaign = &spec
		out.Indices = append([]int(nil), l.units...)
	case KindSweep:
		for _, u := range l.units {
			out.Specs = append(out.Specs, l.job.specs[u])
		}
	}
	return out
}

// Complete settles a lease: every claimed unit is validated against
// the store — the coordinator marks a unit done only when the record
// the worker pushed is present and authentic — and the lease is
// released. Claims for units another worker already completed are
// skipped (idempotent retries); claims whose record is missing or
// invalid return the unit to the pool, and so do reported failures of
// the lease's own units, each counted against MaxUnitFailures. An
// expired or unknown lease ID, or one that another worker holds, is
// not an error: the claims are validated against the job the request
// names, so work finished just past its deadline still counts, but
// its failure reports are ignored and the lease is left alone (the
// reaper re-leases those units anyway).
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	c.touch(req.WorkerID)
	j := c.jobs[req.Job]
	var leased []int
	if l, ok := c.leases[req.LeaseID]; ok && l.worker == req.WorkerID {
		j, leased = l.job, l.units
		// Units the worker did not claim go straight back to todo.
		claimed := make(map[int]bool, len(req.Indices))
		for _, i := range req.Indices {
			claimed[i] = true
		}
		for _, k := range req.Keys {
			if u, ok := l.job.byKey[k]; ok {
				claimed[u] = true
			}
		}
		returned := false
		l.job.mu.Lock()
		for _, u := range l.units {
			if l.job.state[u] == unitLeased && !claimed[u] {
				l.job.state[u] = unitTodo
				returned = true
			}
		}
		l.job.mu.Unlock()
		delete(c.leases, req.LeaseID)
		if returned {
			c.signalLocked()
		}
	}
	c.mu.Unlock()

	accepted := 0
	if j != nil {
		accepted = c.settle(j, req, leased)
	}
	c.flushProgress()
	return CompleteResponse{Accepted: accepted}
}

// settle validates claimed units against the store and marks the valid
// ones done, then counts the failures reported for units in leased.
// Runs outside c.mu (it reads the store); job state is guarded by the
// job's own lock.
func (c *Coordinator) settle(j *Job, req CompleteRequest, leased []int) int {
	accepted := 0
	switch j.kind {
	case KindCampaign:
		for _, i := range req.Indices {
			if i < 0 || i >= len(j.state) {
				continue
			}
			if c.unitDoneOrValid(j, i) && c.markDone(j, i) {
				c.trialsRemote.Add(1)
				accepted++
			}
		}
	case KindSweep:
		for _, k := range req.Keys {
			u, ok := j.byKey[k]
			if !ok {
				continue
			}
			if _, ok, err := c.cfg.Store.Get(k); ok && err == nil && c.markDone(j, u) {
				c.cellsRemote.Add(1)
				accepted++
			}
		}
	}
	for _, f := range req.Failed {
		if err := c.countFailure(j, f, leased); err != nil {
			c.finishJob(j, err)
			return accepted
		}
	}
	c.maybeFinish(j)
	return accepted
}

// countFailure counts one failure report against its unit and returns
// the job's terminal error once the unit has failed MaxUnitFailures
// times. A report for a unit outside leased, or already done, is
// ignored: a worker's reports never count against units it does not
// hold.
func (c *Coordinator) countFailure(j *Job, f UnitFailure, leased []int) error {
	u, name := f.Index, fmt.Sprintf("trial %d", f.Index)
	if j.kind == KindSweep {
		u, name = -1, "cell "+f.Key
		if i, ok := j.byKey[f.Key]; ok {
			u = i
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !slices.Contains(leased, u) || j.state[u] == unitDone {
		return nil
	}
	if j.fails == nil {
		j.fails = make(map[int]int)
	}
	j.fails[u]++
	if j.fails[u] < MaxUnitFailures {
		return nil
	}
	return fmt.Errorf("cluster: %s %s failed %d times: %s", j.kind, name, j.fails[u], f.Err)
}

// unitDoneOrValid loads and validates the stored trial record of unit
// i of a campaign job.
func (c *Coordinator) unitDoneOrValid(j *Job, i int) bool {
	var tr campaign.Trial
	ok, err := j.ns.GetJSON(campaign.TrialRecordName(i), &tr)
	return err == nil && ok && campaign.ValidTrial(j.camp, i, &tr)
}

// markDone transitions unit i to done; false if it already was (a
// duplicate completion after a lease was re-issued — the records are
// byte-identical, so either copy is the truth). Defers the onProgress
// call so it never runs under a lock.
func (c *Coordinator) markDone(j *Job, i int) bool {
	j.mu.Lock()
	if j.state[i] == unitDone {
		j.mu.Unlock()
		return false
	}
	j.state[i] = unitDone
	j.done++
	done, total := j.done, len(j.state)
	cb := j.onProgress
	j.mu.Unlock()
	if cb != nil {
		c.progressMu.Lock()
		c.progress = append(c.progress, func() { cb(done, total) })
		c.progressMu.Unlock()
	}
	return true
}

// flushProgress fires deferred progress callbacks outside every lock.
func (c *Coordinator) flushProgress() {
	c.progressMu.Lock()
	cbs := c.progress
	c.progress = nil
	c.progressMu.Unlock()
	for _, cb := range cbs {
		cb()
	}
}

// Heartbeat extends the worker's liveness and every lease it holds.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.WorkerID)
	n := 0
	deadline := c.cfg.Now().Add(c.cfg.LeaseTTL)
	for _, l := range c.leases {
		if l.worker == req.WorkerID {
			l.deadline = deadline
			n++
		}
	}
	return HeartbeatResponse{OK: true, Leases: n}
}

// reapLocked reclaims expired leases: each leased unit goes back to
// todo unless the dead worker already pushed a valid record for it —
// the store is the truth, so work completed by a worker that died
// before reporting still counts and is never re-run. Called with c.mu
// held; store probes for campaign units are accepted as the cost of a
// rare event (a lease expiry). Returns the jobs it touched so the
// caller can run their finish check after releasing c.mu (finishJob
// takes c.mu itself).
func (c *Coordinator) reapLocked() []*Job {
	now := c.cfg.Now()
	// Prune workers silent for ten TTLs so a churning fleet (rejoins,
	// restarts) does not grow the registry without bound. Their leases,
	// if any, expire below on their own deadlines.
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > 10*c.cfg.LeaseTTL {
			delete(c.workers, id)
		}
	}
	var touched []*Job
	for id, l := range c.leases {
		if !l.deadline.Before(now) {
			continue
		}
		delete(c.leases, id)
		c.leasesExpired.Add(1)
		j := l.job
		touched = append(touched, j)
		for _, u := range l.units {
			recovered := false
			switch j.kind {
			case KindCampaign:
				recovered = c.unitDoneOrValid(j, u)
			case KindSweep:
				_, ok, err := c.cfg.Store.Get(j.cellKeys[u])
				recovered = ok && err == nil
			}
			if recovered {
				if c.markDone(j, u) {
					if j.kind == KindCampaign {
						c.trialsRemote.Add(1)
					} else {
						c.cellsRemote.Add(1)
					}
				}
				continue
			}
			j.mu.Lock()
			if j.state[u] == unitLeased {
				j.state[u] = unitTodo
			}
			j.mu.Unlock()
		}
	}
	if len(touched) > 0 {
		c.signalLocked()
	}
	return touched
}

// maybeFinish finishes j if every unit is done. Safe to call from any
// path that marks units done; the finish itself runs at most once.
func (c *Coordinator) maybeFinish(j *Job) {
	j.mu.Lock()
	complete := j.done == len(j.state)
	j.mu.Unlock()
	if complete {
		c.finishJob(j, nil)
	}
}

// finishJob runs a job's finish step exactly once. A failed job (err
// non-nil) just records err. A completed campaign loads its full trial
// set from the store, assembles the Report through campaign.Assemble —
// the same aggregation local execution uses, so the persisted Report
// is byte-identical to a 1-node run — and persists it under the
// campaign's report record. A sweep's records are already in the
// store, so there is nothing to write. The job is then retired from
// the scheduling order and Done is closed; a later submission of its
// key starts a fresh job.
func (c *Coordinator) finishJob(j *Job, err error) {
	j.finishOnce.Do(func() {
		if err == nil && j.kind == KindCampaign {
			err = c.assembleReport(j)
		}
		j.mu.Lock()
		j.err = err
		j.mu.Unlock()

		c.mu.Lock()
		delete(c.jobs, j.key)
		for i, k := range c.order {
			if k == j.key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.signalLocked()
		c.mu.Unlock()
		close(j.finished)
	})
}

// assembleReport merges the campaign's stored trials into its Report
// and persists it, unless a finished report is already stored (a
// concurrent single-node run of the same campaign, or a resubmit after
// completion).
func (c *Coordinator) assembleReport(j *Job) error {
	var existing campaign.Report
	if ok, err := j.ns.GetJSON(campaign.ReportRecordName, &existing); err == nil && ok &&
		existing.Key == j.key {
		return nil
	}
	trials := make([]campaign.Trial, j.camp.Trials)
	for i := range trials {
		var tr campaign.Trial
		ok, err := j.ns.GetJSON(campaign.TrialRecordName(i), &tr)
		if err != nil {
			return fmt.Errorf("cluster: campaign %s: trial %d: %w", j.key, i, err)
		}
		if !ok || !campaign.ValidTrial(j.camp, i, &tr) {
			return fmt.Errorf("cluster: campaign %s: trial %d vanished before assembly", j.key, i)
		}
		trials[i] = tr
	}
	rep, err := campaign.Assemble(j.camp, trials)
	if err != nil {
		return err
	}
	return j.ns.PutJSON(campaign.ReportRecordName, rep)
}

// Jobs reports how many jobs are in flight, for health reporting.
func (c *Coordinator) Jobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}
