// Package service exposes the simulation harness as an HTTP API — the
// "simulation-as-a-service" layer of cmd/reboundd. It accepts Spec and
// sweep requests, schedules them on the shared harness.Runner behind a
// bounded admission queue, persists every result in the content-
// addressed store, and serves repeated requests from that store without
// re-simulating — across process restarts.
//
// Endpoints:
//
//	POST /v1/runs             one Spec; returns the full result record
//	GET  /v1/runs/{key}       the stored record bytes by content address
//	                          (served zero-copy; ETag = key, 304 on
//	                          If-None-Match revalidation)
//	POST /v1/sweeps           a named figure (e.g. "fig6.2") or Spec list
//	POST /v1/campaigns        start/resume a fault campaign (background job)
//	GET  /v1/campaigns/{key}  campaign progress, or the finished Report
//	POST /v1/explore          start/resume a scheme-space exploration (background job)
//	GET  /v1/explore/{key}    exploration progress, or the FrontierReport
//	GET  /healthz             liveness
//	GET  /metrics             expvar counters (cache, queue, in-flight,
//	                          job progress)
//
// Request validation goes through harness.Spec.Validate, identical
// in-flight Specs are deduplicated (singleflight: the second request
// waits for the first simulation instead of taking a queue slot), and
// a request whose context is cancelled while queued frees its slot
// without starting the cell.
//
// Campaigns and explorations are background jobs with one lifecycle
// and one admission queue (jobs.go); SubmitAndPoll is their client.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/store"
)

// Config wires a Server. Runner and Store are required.
type Config struct {
	Runner *harness.Runner
	Store  *store.Store
	// Scale is the default experiment scale for requests that do not
	// name one (harness.Quick or harness.Full).
	Scale harness.Scale
	// MaxConcurrent bounds how many admitted single-run jobs simulate
	// at once; <= 0 selects the runner's worker count. A sweep fans out
	// across the runner's full worker pool, so it is admitted
	// exclusively: it waits for and holds every slot, keeping the
	// machine-wide simulation concurrency at the runner's width no
	// matter how many sweeps and runs are in flight.
	MaxConcurrent int
	// QueueDepth bounds how many jobs may wait for a slot before the
	// service answers 503; <= 0 selects 64.
	QueueDepth int
	// Role selects distributed mode: RoleSingle (default) runs every
	// job in process; RoleCoordinator partitions sweeps and campaigns
	// into cluster leases and serves the cluster endpoints (cluster.go).
	Role string
	// LeaseTTL overrides the cluster lease TTL in coordinator role;
	// 0 selects cluster.DefaultLeaseTTL.
	LeaseTTL time.Duration
}

// Server is the HTTP service. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	slots    chan struct{} // concurrency slots, cap MaxConcurrent
	waitq    chan struct{} // waiting-room tokens, cap QueueDepth
	sweepSem chan struct{} // sweep turnstile, cap 1 (see acquireAll)
	start    time.Time

	mu     sync.Mutex
	flight map[string]*call

	// Background jobs (jobs.go): running and failed campaigns and
	// explorations under one lock, so admission counts every kind
	// together, plus the loaders for their stored reports.
	jobsMu    sync.Mutex
	jobs      map[string]*job // by endpoint path + "/" + key
	loader    *campaign.Engine
	expLoader *explore.Explorer

	// Cluster state (cluster.go), nil/zero for RoleSingle: the
	// coordinator, the in-process worker and its lifecycle plumbing.
	coord          *cluster.Coordinator
	worker         *cluster.Worker
	workerStop     context.CancelFunc
	workerDone     chan struct{}
	workerDraining atomic.Bool
	jobKick        chan struct{}
	closeOnce      sync.Once

	// Metrics, reported by /metrics. expvar types for atomicity; they
	// are deliberately not Publish()ed to the process-global expvar map
	// so multiple Servers (tests) can coexist.
	cacheHits   expvar.Int // requests answered from the store
	cacheMisses expvar.Int // requests that had to simulate
	dedups      expvar.Int // requests that joined an in-flight simulation
	inFlight    expvar.Int // jobs holding a slot right now
	queued      expvar.Int // jobs waiting for a slot right now
	runsTotal   expvar.Int
	sweepsTotal expvar.Int
	storeErrors expvar.Int // corrupt/unreadable records healed by re-run

	campaignsTotal     expvar.Int // background campaigns started
	campaignsRunning   expvar.Int // background campaigns in flight
	campaignTrialsDone expvar.Int // trials completed (or restored) across campaigns

	exploresTotal         expvar.Int // background explorations started
	exploresRunning       expvar.Int // background explorations in flight
	exploreCellsDone      expvar.Int // cell evaluations completed across explorations
	exploreCellsEvaluated expvar.Int // cells actually simulated (not cached)
	exploreCellsFromStore expvar.Int // cells served from the shared cells namespace
}

// call is one in-flight simulation; requests for the same Spec share it.
type call struct {
	done chan struct{}
	rec  *store.Record
	err  error
}

var errQueueFull = errors.New("service: job queue full")

// New returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil || cfg.Store == nil {
		return nil, errors.New("service: Config.Runner and Config.Store are required")
	}
	if cfg.Scale.InstrPerProc == 0 {
		cfg.Scale = harness.Full
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = cfg.Runner.Workers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		slots:     make(chan struct{}, cfg.MaxConcurrent),
		waitq:     make(chan struct{}, cfg.QueueDepth),
		sweepSem:  make(chan struct{}, 1),
		start:     time.Now(),
		flight:    make(map[string]*call),
		jobs:      make(map[string]*job),
		loader:    campaign.New(cfg.Runner, cfg.Store),
		expLoader: explore.New(nil, cfg.Store),
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleGetRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.campaignKind().register()
	s.exploreKind().register()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.jobKick = make(chan struct{}, 1)
	if err := s.initCluster(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// --- request/response shapes ----------------------------------------------

// RunRequest is the JSON body of POST /v1/runs and each element of a
// sweep's explicit spec list.
type RunRequest struct {
	App    string `json:"app"`
	Procs  int    `json:"procs,omitempty"` // 0: scale default for the app's suite
	Scheme string `json:"scheme"`
	Scale  string `json:"scale,omitempty"` // "quick"|"full"; empty: server default
	// Optional experiment knobs, zero values = defaults.
	IOForce  uint64 `json:"ioforce,omitempty"`
	WSIGBits int    `json:"wsigbits,omitempty"`
	DepSets  int    `json:"depsets,omitempty"`
	LogAllWB bool   `json:"logallwb,omitempty"`
	// Shards selects the machine's state-partition count (power of
	// two; 0/1 = unsharded). It changes snapshot parallelism, never
	// results.
	Shards int `json:"shards,omitempty"`
}

// Spec resolves the request against the server's default scale and
// validates it.
func (rr RunRequest) Spec(def harness.Scale) (harness.Spec, error) {
	sc := def
	if rr.Scale != "" {
		var err error
		if sc, err = harness.ScaleByName(rr.Scale); err != nil {
			return harness.Spec{}, err
		}
	}
	procs := rr.Procs
	if procs == 0 {
		procs = harness.DefaultProcs(sc, rr.App)
	}
	spec := harness.Spec{
		App: rr.App, Procs: procs, Scheme: rr.Scheme, Scale: sc,
		IOForce: rr.IOForce, WSIGBits: rr.WSIGBits, DepSets: rr.DepSets,
		LogAllWB: rr.LogAllWB, Shards: rr.Shards,
	}
	return spec, spec.Validate()
}

// RunResponse is the JSON body answering POST /v1/runs.
type RunResponse struct {
	Key string `json:"key"`
	// Cached is true when the result came from the persistent store
	// (no simulation ran for this request); Deduped when it shared
	// another request's in-flight simulation.
	Cached  bool          `json:"cached"`
	Deduped bool          `json:"deduped,omitempty"`
	Record  *store.Record `json:"record"`
}

// SweepRequest is the JSON body of POST /v1/sweeps: either a named
// figure ("fig6.2", "t6.1", "all") or an explicit spec list.
type SweepRequest struct {
	Figure string       `json:"figure,omitempty"`
	Specs  []RunRequest `json:"specs,omitempty"`
	Scale  string       `json:"scale,omitempty"`
}

// SweepCell summarises one cell of a sweep response.
type SweepCell struct {
	Key    string `json:"key"`
	App    string `json:"app"`
	Procs  int    `json:"procs"`
	Scheme string `json:"scheme"`
	Cycles uint64 `json:"cycles"`
	Cached bool   `json:"cached"`
}

// SweepResponse is the JSON body answering POST /v1/sweeps.
type SweepResponse struct {
	Figure string      `json:"figure,omitempty"`
	Scale  string      `json:"scale"`
	Count  int         `json:"count"`
	Cached int         `json:"cached"`
	Cells  []SweepCell `json:"cells"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- admission queue -------------------------------------------------------

// enter takes a token of sem, waiting in the bounded waiting room if
// none is free. It fails with errQueueFull when the waiting room is
// full, or with ctx's error when ctx is cancelled while waiting — in
// both cases holding nothing (a cancelled request frees its place in
// line immediately).
func (s *Server) enter(ctx context.Context, sem chan struct{}) error {
	select {
	case sem <- struct{}{}:
		return nil
	default:
	}
	// Busy: take a waiting-room token. The buffered channel enforces
	// the bound atomically — a burst larger than QueueDepth gets
	// errQueueFull, never an over-long queue.
	select {
	case s.waitq <- struct{}{}:
	default:
		return errQueueFull
	}
	s.queued.Add(1)
	defer func() { s.queued.Add(-1); <-s.waitq }()
	select {
	case sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire admits one job: it takes a concurrency slot (see enter) and
// returns the release func.
func (s *Server) acquire(r *http.Request) (func(), error) {
	ctx := r.Context()
	if err := s.enter(ctx, s.slots); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		<-s.slots
		return nil, err
	}
	s.inFlight.Add(1)
	return func() { <-s.slots; s.inFlight.Add(-1) }, nil
}

// acquireAll admits a sweep exclusively. A sweep fans its cells out
// across the runner's full worker pool, so admitting it like a single
// job would let MaxConcurrent sweeps run MaxConcurrent×workers
// simulations at once. Instead a sweep first takes the single-entry
// sweep turnstile (bounded wait, like acquire), then drains every
// concurrency slot: while it runs, no other sweep or single run
// simulates, and total simulation concurrency stays at the runner's
// width. Only one sweep drains at a time (the turnstile), so two
// sweeps can never deadlock holding half the slots each.
func (s *Server) acquireAll(r *http.Request) (func(), error) {
	if err := s.enter(r.Context(), s.sweepSem); err != nil {
		return nil, err
	}
	return s.drainSlots(r.Context())
}

// acquireAllBackground is acquireAll for background jobs: it waits
// indefinitely on the sweep turnstile, then drains every concurrency
// slot, so a running job keeps machine-wide simulation concurrency at
// the runner's width exactly like a sweep does. Admission control
// happened at POST time (the running-job map is the visible queue), so
// there is no waiting-room bound or request context to honour here.
func (s *Server) acquireAllBackground() func() {
	s.sweepSem <- struct{}{}
	release, _ := s.drainSlots(context.Background())
	return release
}

// drainSlots takes every concurrency slot for the holder of the sweep
// turnstile. On ctx's cancellation it gives back the slots it took and
// the turnstile.
func (s *Server) drainSlots(ctx context.Context) (func(), error) {
	taken := 0
	giveBack := func() {
		for i := 0; i < taken; i++ {
			<-s.slots
		}
		<-s.sweepSem
	}
	for taken < cap(s.slots) {
		select {
		case s.slots <- struct{}{}:
			taken++
		case <-ctx.Done():
			giveBack()
			return nil, ctx.Err()
		}
	}
	s.inFlight.Add(1)
	return func() { giveBack(); s.inFlight.Add(-1) }, nil
}

// --- core run path ---------------------------------------------------------

// runOne serves one validated spec: store first, then singleflight
// deduplication against identical in-flight specs, then an admitted
// simulation whose result is persisted before anyone sees it.
func (s *Server) runOne(r *http.Request, spec harness.Spec) (RunResponse, error) {
	key := store.KeyOf(spec)
	var c *call
	for c == nil {
		rec, ok, err := s.cfg.Store.Get(key)
		if ok {
			s.cacheHits.Add(1)
			return RunResponse{Key: key, Cached: true, Record: rec}, nil
		}
		if err != nil {
			// A record that exists but cannot be decoded/verified is
			// healed by re-simulating and overwriting it.
			s.storeErrors.Add(1)
		}

		s.mu.Lock()
		if existing, ok := s.flight[key]; ok {
			s.mu.Unlock()
			select {
			case <-existing.done:
				if existing.err == nil {
					s.dedups.Add(1)
					return RunResponse{Key: key, Deduped: true, Record: existing.rec}, nil
				}
				if errors.Is(existing.err, context.Canceled) ||
					errors.Is(existing.err, context.DeadlineExceeded) {
					// The executor's own client went away before its
					// cell ran; that is its failure, not ours. Go
					// around again (store, new flight, or become the
					// executor ourselves).
					continue
				}
				return RunResponse{}, existing.err
			case <-r.Context().Done():
				return RunResponse{}, r.Context().Err()
			}
		}
		c = &call{done: make(chan struct{})}
		s.flight[key] = c
		s.mu.Unlock()
	}

	// Executor path. The completion bookkeeping is deferred so a panic
	// anywhere below still releases the flight entry and wakes joiners
	// (net/http recovers handler panics, so the process would survive
	// with the key wedged otherwise).
	defer func() {
		if c.rec == nil && c.err == nil {
			// Unwinding from a panic: joiners must not observe a
			// successful call with no record.
			c.err = errors.New("service: simulation aborted")
		}
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		close(c.done)
	}()
	// Double-check the store now that the flight entry is claimed:
	// another executor may have completed (Put, then left the flight
	// map) between our store miss above and the claim, and simulating
	// again would misreport a cached cell as fresh.
	if rec, ok, _ := s.cfg.Store.Get(key); ok {
		s.cacheHits.Add(1)
		c.rec = rec
		return RunResponse{Key: key, Cached: true, Record: rec}, nil
	}
	c.rec, c.err = s.simulate(r, spec)
	if c.err != nil {
		return RunResponse{}, c.err
	}
	s.cacheMisses.Add(1)
	return RunResponse{Key: key, Record: c.rec}, nil
}

// simulate admits, runs and persists one cell.
func (s *Server) simulate(r *http.Request, spec harness.Spec) (*store.Record, error) {
	release, err := s.acquire(r)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := s.cfg.Runner.RunOne(r.Context(), spec)
	if err != nil {
		return nil, err
	}
	return s.cfg.Store.PutResult(res)
}

// --- handlers --------------------------------------------------------------

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var rr RunRequest
	if err := decodeJSON(r, &rr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := rr.Spec(s.cfg.Scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.runOne(r, spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.runsTotal.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handleGetRun serves a stored record as its content-addressed bytes,
// straight from the store (store.GetRaw): no decode, no re-marshal, no
// copy. Records are immutable and the key IS the content address, so
// the key doubles as a permanently-valid ETag — a client that revalidates
// gets 304 without the body. The body is the bare record JSON (the
// RunResponse envelope adds nothing a by-key fetch does not know).
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok, err := s.cfg.Store.GetRaw(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result stored under %q", key))
		return
	}
	etag := `"` + key + `"`
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Content-Type", "application/json")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// etagMatches implements the RFC 9110 §13.1.2 If-None-Match check
// against one entity tag: the header may carry "*" (matches any stored
// response) or a comma-separated list of quoted tags, each optionally
// weak (W/ prefix — If-None-Match always compares weakly, so the prefix
// is stripped). A bare unquoted tag is tolerated for sloppy clients.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag || `"`+candidate+`"` == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	if err := decodeJSON(r, &sr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if (sr.Figure == "") == (len(sr.Specs) == 0) {
		writeError(w, http.StatusBadRequest,
			errors.New(`exactly one of "figure" or "specs" must be set`))
		return
	}
	sc := s.cfg.Scale
	if sr.Scale != "" {
		var err error
		if sc, err = harness.ScaleByName(sr.Scale); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	var specs []harness.Spec
	if sr.Figure != "" {
		var err error
		if specs, err = harness.FigureSpecs(sr.Figure, sc); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		for i, rr := range sr.Specs {
			spec, err := rr.Spec(sc)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("specs[%d]: %w", i, err))
				return
			}
			specs = append(specs, spec)
		}
	}

	resp, err := s.runSweep(r, sr.Figure, sc, specs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.sweepsTotal.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// runSweep serves every cell of a sweep: stored cells from the store,
// the rest simulated as one admitted job across the runner's pool,
// each result persisted before the response is assembled.
func (s *Server) runSweep(r *http.Request, figure string, sc harness.Scale, specs []harness.Spec) (*SweepResponse, error) {
	recs := make(map[string]*store.Record, len(specs))
	cached := make(map[string]bool, len(specs))
	var missing []harness.Spec
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		key := store.KeyOf(spec)
		if seen[key] {
			continue
		}
		seen[key] = true
		rec, ok, err := s.cfg.Store.Get(key)
		if ok {
			s.cacheHits.Add(1)
			recs[key] = rec
			cached[key] = true
			continue
		}
		if err != nil {
			s.storeErrors.Add(1)
		}
		missing = append(missing, spec)
	}

	switch {
	case len(missing) == 0:
	case s.coord != nil:
		// Coordinator role: the cluster runs the missing cells — the
		// in-process worker plus whatever remote workers have joined —
		// and every record lands in the shared store before the job
		// completes. The response is then read back from the store,
		// exactly as a single-node run would have written it.
		if err := s.clusterSweep(r.Context(), missing); err != nil {
			return nil, err
		}
		for _, spec := range missing {
			key := store.KeyOf(spec)
			rec, ok, err := s.cfg.Store.Get(key)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("service: sweep cell %s completed but stored no record", key)
			}
			s.cacheMisses.Add(1)
			recs[key] = rec
		}
	default:
		release, err := s.acquireAll(r)
		if err != nil {
			return nil, err
		}
		results, runErr := s.cfg.Runner.Run(r.Context(), missing...)
		release()
		// Persist every cell that did complete before reporting any
		// error: a sweep cancelled at 90% must not lose its finished
		// simulations to a later restart (cells that never ran have a
		// zero Result with no stats).
		for _, res := range results {
			if res.St == nil {
				continue
			}
			rec, err := s.cfg.Store.PutResult(res)
			if err != nil {
				return nil, err
			}
			s.cacheMisses.Add(1)
			recs[rec.Key] = rec
		}
		if runErr != nil {
			return nil, runErr
		}
	}

	resp := &SweepResponse{Figure: figure, Scale: sc.Name, Count: len(specs)}
	for _, spec := range specs {
		key := store.KeyOf(spec)
		rec := recs[key]
		cell := SweepCell{Key: key, App: spec.App, Procs: spec.Procs,
			Scheme: spec.Scheme, Cached: cached[key]}
		if rec != nil {
			cell.Cycles = rec.Cycles
		}
		if cached[key] {
			resp.Cached++
		}
		resp.Cells = append(resp.Cells, cell)
	}
	return resp, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	info := s.clusterInfo()
	body := map[string]any{
		"status":         "ok",
		"role":           info.role,
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"store_records":  s.cfg.Store.Len(),
		"workers":        s.cfg.Runner.Workers(),
		"peers":          info.metrics.LiveWorkers,
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	info := s.clusterInfo()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"cache_hits": %s, "cache_misses": %s, "dedups": %s, `+
		`"in_flight": %s, "queue_waiting": %s, "queue_capacity": %d, `+
		`"max_concurrent": %d, "runs_total": %s, "sweeps_total": %s, `+
		`"campaigns_total": %s, "campaigns_running": %s, "campaign_trials_done": %s, `+
		`"explores_total": %s, "explores_running": %s, "explore_cells_done": %s, `+
		`"explore_cells_evaluated": %s, "explore_cells_from_store": %s, `+
		`"store_errors": %s, "store_records": %d, "runner_cached_cells": %d, `+
		`"role": %q, "workers_joined": %d, "live_workers": %d, "leases_active": %d, `+
		`"leases_expired": %d, "trials_remote_total": %d, "cells_remote_total": %d}`+"\n",
		s.cacheHits.String(), s.cacheMisses.String(), s.dedups.String(),
		s.inFlight.String(), s.queued.String(), s.cfg.QueueDepth,
		s.cfg.MaxConcurrent, s.runsTotal.String(), s.sweepsTotal.String(),
		s.campaignsTotal.String(), s.campaignsRunning.String(), s.campaignTrialsDone.String(),
		s.exploresTotal.String(), s.exploresRunning.String(), s.exploreCellsDone.String(),
		s.exploreCellsEvaluated.String(), s.exploreCellsFromStore.String(),
		s.storeErrors.String(), s.cfg.Store.Len(), s.cfg.Runner.CachedRuns(),
		info.role, info.metrics.WorkersJoined, info.metrics.LiveWorkers,
		info.metrics.LeasesActive, info.metrics.LeasesExpired,
		info.metrics.TrialsRemote, info.metrics.CellsRemote)
}

// --- helpers ---------------------------------------------------------------

// maxBodyBytes bounds request bodies; spec lists are small.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a request body holding exactly one JSON value;
// trailing whitespace is allowed, trailing data is not.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("invalid request body: trailing data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusFor maps run-path errors to HTTP statuses: an overloaded queue
// or a cancelled request is 503 (retryable), everything else 500.
func statusFor(err error) int {
	if errors.Is(err, errQueueFull) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
