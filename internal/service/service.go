// Package service exposes the simulation harness as an HTTP API — the
// "simulation-as-a-service" layer of cmd/reboundd. It accepts Spec and
// sweep requests behind a bounded admission queue, persists every
// result in the content-addressed store, and serves repeated requests
// from that store without re-simulating — across process restarts.
// A single run simulates on the request path; every sweep, campaign
// and exploration runs through the cluster coordinator and its
// in-process worker (cluster.go), whatever the server's role.
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
	// at once; <= 0 selects the runner's worker count. The in-process
	// worker fans sweep cells and campaign trials out across the
	// runner's full worker pool, so while the coordinator has jobs it
	// holds every slot, keeping the machine-wide simulation concurrency
	// at the runner's width.
	MaxConcurrent int
	// QueueDepth bounds two things, each answering 503 when full: the
	// waiting room (single runs waiting for a slot, and sweep jobs
	// started by a request until they are done) and the running
	// background jobs. <= 0 selects 64.
	QueueDepth int
	// Role selects the cluster surface the server mounts. Every sweep,
	// campaign and exploration runs through the cluster coordinator in
	// either role; RoleSingle (default) is a coordinator with no remote
	// workers and no cluster routes, RoleCoordinator also serves the
	// cluster protocol and store-proxy routes remote workers join
	// through (cluster.go).
	Role string
	// LeaseTTL overrides the cluster lease TTL; 0 selects
	// cluster.DefaultLeaseTTL.
	LeaseTTL time.Duration

	// tier is the in-process worker's store tier; nil selects a
	// cluster.LocalTier on Store. Tests inject failing tiers here.
	tier cluster.Tier
}

// Server is the HTTP service. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	slots chan struct{} // concurrency slots, cap MaxConcurrent
	waitq chan struct{} // waiting-room tokens, cap QueueDepth
	start time.Time

	mu     sync.Mutex
	flight map[string]*call

	// Background jobs (jobs.go): running and failed campaigns and
	// explorations under one lock, so admission counts every kind
	// together, plus the loaders for their stored reports.
	jobsMu    sync.Mutex
	jobs      map[string]*job // by endpoint path + "/" + key
	loader    *campaign.Engine
	expLoader *explore.Explorer

	// Cluster state (cluster.go): the coordinator every sweep, campaign
	// and exploration runs through, the in-process worker and its
	// lifecycle plumbing.
	coord       *cluster.Coordinator
	worker      *cluster.Worker
	workerStop  context.CancelFunc // stops the worker outright
	workerDrain context.CancelFunc // ends its waits between jobs
	workerDone  chan struct{}
	closeOnce   sync.Once

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
	switch cfg.Role {
	case "":
		cfg.Role = RoleSingle
	case RoleSingle, RoleCoordinator:
	default:
		return nil, fmt.Errorf("service: unknown role %q", cfg.Role)
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		slots:     make(chan struct{}, cfg.MaxConcurrent),
		waitq:     make(chan struct{}, cfg.QueueDepth),
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
	// Shards sets how many line-ID ranges the machine's snapshot plane
	// splits its memory and directory copies into (a power of two up
	// to harness.MaxShards; 0/1 = one range). It changes snapshot
	// parallelism, never results.
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

// waitRoom takes a waiting-room token without blocking and returns
// its release func. The buffered channel enforces the bound
// atomically: a burst larger than QueueDepth gets errQueueFull, never
// an over-long queue.
func (s *Server) waitRoom() (func(), error) {
	select {
	case s.waitq <- struct{}{}:
	default:
		return nil, errQueueFull
	}
	s.queued.Add(1)
	return func() { s.queued.Add(-1); <-s.waitq }, nil
}

// enter takes a concurrency slot, waiting in the bounded waiting room
// if none is free. It fails with errQueueFull when the waiting room is
// full, or with ctx's error when ctx is cancelled while waiting — in
// both cases holding nothing (a cancelled request frees its place in
// line immediately).
func (s *Server) enter(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	leave, err := s.waitRoom()
	if err != nil {
		return err
	}
	defer leave()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire admits one job: it takes a concurrency slot (see enter) and
// returns the release func.
func (s *Server) acquire(r *http.Request) (func(), error) {
	ctx := r.Context()
	if err := s.enter(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		<-s.slots
		return nil, err
	}
	s.inFlight.Add(1)
	return func() { <-s.slots; s.inFlight.Add(-1) }, nil
}

// submitSweep submits the missing cells of a sweep request to the
// coordinator. A sweep that starts a new job takes a waiting-room
// token without blocking (a full room is errQueueFull), and the job
// holds it until it is done: a client that drops its request cannot
// pile up jobs beyond QueueDepth. A sweep that joins a job already in
// flight adds no work and takes no token.
func (s *Server) submitSweep(specs []harness.Spec) (*cluster.Job, error) {
	if s.coord.SweepInFlight(specs) {
		return s.coord.SubmitSweep(specs)
	}
	leave, err := s.waitRoom()
	if err != nil {
		return nil, err
	}
	j, err := s.coord.SubmitSweep(specs)
	if err != nil {
		leave()
		return nil, err
	}
	go func() {
		<-j.Done()
		leave()
	}()
	return j, nil
}

// acquireAll admits the in-process worker while the coordinator has
// jobs: it waits for and drains every concurrency slot, so the leases
// it fans out across the runner's full pool keep machine-wide
// simulation concurrency at the runner's width. The worker is the only
// holder of more than one slot, so no two drainers can deadlock
// holding half the slots each; admission control happened when the
// jobs were submitted, so there is no waiting-room bound here.
func (s *Server) acquireAll() func() {
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	s.inFlight.Add(1)
	return func() {
		for i := 0; i < cap(s.slots); i++ {
			<-s.slots
		}
		s.inFlight.Add(-1)
	}
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
// the rest simulated as one admitted coordinator job, each result
// persisted before the response is assembled.
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

	if len(missing) > 0 {
		// The coordinator runs the missing cells: the in-process worker
		// plus whatever remote workers have joined.
		j, err := s.submitSweep(missing)
		if err != nil {
			return nil, err
		}
		fresh, err := s.awaitSweep(r.Context(), j, missing)
		if err != nil {
			return nil, err
		}
		for _, rec := range fresh {
			s.cacheMisses.Add(1)
			recs[rec.Key] = rec
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
	body := map[string]any{
		"status":         "ok",
		"role":           s.cfg.Role,
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"store_records":  s.cfg.Store.Len(),
		"workers":        s.cfg.Runner.Workers(),
		"peers":          s.coord.LiveWorkers(),
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cm := s.coord.Metrics()
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
		s.cfg.Role, cm.WorkersJoined, cm.LiveWorkers, cm.LeasesActive, cm.LeasesExpired,
		cm.TrialsRemote, cm.CellsRemote)
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
