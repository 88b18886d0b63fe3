package service

// The cluster coordinator. Every sweep, campaign and exploration the
// server accepts is a coordinator job, partitioned into leases. The
// server always runs one in-process worker (cluster.Direct + LocalTier
// on the shared store), so a server with no remote workers still
// completes every job: that is RoleSingle, a coordinator whose fleet is
// its own worker. With Config.Role == RoleCoordinator the server also
// mounts the cluster surface remote workers join through, on top of
// the unchanged public API:
//
//	POST /v1/cluster/join        worker registration
//	POST /v1/cluster/lease       work-stealing lease pull (long poll)
//	POST /v1/cluster/complete    lease completion (store-validated)
//	POST /v1/cluster/heartbeat   lease renewal
//	GET  /v1/store/ns/{path...}  store proxy: raw namespace records
//	PUT  /v1/store/ns/{path...}  store proxy: raw namespace records
//	PUT  /v1/store/runs/{key}    store proxy: one verified run record
//
// Remote workers pull leases over the endpoints above and only add
// capacity. Because every worker pushes records through the same
// content-addressed store writes the local engine uses, the stored
// sweeps, trials and reports are byte-identical no matter which node
// computed them.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/store"
)

// Server roles.
const (
	RoleSingle      = "single"
	RoleCoordinator = "coordinator"
)

// maxStoreBodyBytes bounds store-proxy uploads. Serialized machine
// snapshots are the large case (memory image plus caches); run and
// trial records are kilobytes.
const maxStoreBodyBytes = 512 << 20

// initCluster builds the cluster coordinator and starts the
// in-process worker; in RoleCoordinator it also mounts the cluster
// protocol and store-proxy routes.
func (s *Server) initCluster() error {
	coord, err := cluster.New(cluster.Config{Store: s.cfg.Store, LeaseTTL: s.cfg.LeaseTTL})
	if err != nil {
		return err
	}
	s.coord = coord

	if s.cfg.Role == RoleCoordinator {
		s.mux.HandleFunc("POST /v1/cluster/join", clusterCall(coord.Join))
		s.mux.HandleFunc("POST /v1/cluster/lease", s.handleClusterLease)
		s.mux.HandleFunc("POST /v1/cluster/complete", clusterCall(coord.Complete))
		s.mux.HandleFunc("POST /v1/cluster/heartbeat", clusterCall(coord.Heartbeat))
		s.mux.HandleFunc("GET /v1/store/ns/{path...}", s.handleStoreNSGet)
		s.mux.HandleFunc("PUT /v1/store/ns/{path...}", s.handleStoreNSPut)
		s.mux.HandleFunc("PUT /v1/store/runs/{key}", s.handleStoreRunPut)
	}

	// The in-process worker: the coordinator's own share of the fleet.
	// It executes leases on the server's runner through the local store
	// tier, holding every concurrency slot while it runs (acquireAll)
	// so machine-wide simulation concurrency stays at the runner's
	// width.
	tier := s.cfg.tier
	if tier == nil {
		tier = &cluster.LocalTier{St: s.cfg.Store}
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Proto:      cluster.Direct{C: coord},
		Runner:     s.cfg.Runner,
		Tier:       tier,
		Name:       "local",
		ExitOnIdle: true,
	})
	if err != nil {
		return err
	}
	s.worker = w
	ctx, cancel := context.WithCancel(context.Background())
	idle, drain := context.WithCancel(ctx)
	s.workerStop, s.workerDrain = cancel, drain
	s.workerDone = make(chan struct{})
	go func() {
		defer close(s.workerDone)
		s.runLocalWorker(ctx, idle)
	}()
	return nil
}

// runLocalWorker loops the in-process worker: wait for the coordinator
// to have work, take every concurrency slot, run leases until the
// cluster is idle again (ExitOnIdle), release. Holding the slots only
// while jobs exist keeps HTTP-path runs from being starved by an idle
// cluster. Inside Run the worker's lease requests wait on the
// coordinator (LeaseWait), so it takes a unit the moment one becomes
// claimable; between jobs waitForJobs waits on the same change signal.
// ctx stops the worker outright; idle, cancelled by DrainCluster, ends
// only the waits between jobs.
func (s *Server) runLocalWorker(ctx, idle context.Context) {
	for s.waitForJobs(idle) {
		release := s.acquireAll()
		err := s.worker.Run(ctx)
		release()
		if err != nil || idle.Err() != nil {
			return
		}
	}
}

// waitForJobs blocks until the coordinator has at least one job,
// returning false once ctx ends.
func (s *Server) waitForJobs(ctx context.Context) bool {
	for {
		changed := s.coord.Changed()
		if ctx.Err() != nil {
			return false
		}
		if s.coord.Jobs() > 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-changed:
		}
	}
}

// DrainCluster stops the in-process worker after its current lease and
// waits for it — the graceful half of a server shutdown (leases
// in flight complete and report; nothing is abandoned). Remote workers
// drain themselves on their own SIGTERM.
func (s *Server) DrainCluster() {
	s.worker.Drain()
	s.workerDrain()
	<-s.workerDone
}

// Close releases the server's background resources (the in-process
// worker). Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.workerStop()
		<-s.workerDone
	})
}

// Coordinator exposes the cluster coordinator every sweep, campaign
// and exploration runs through, in either role, for tests and
// benchmarks.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// --- cluster protocol handlers ---------------------------------------------

// clusterCall serves one cluster protocol endpoint: decode the
// request, answer with the coordinator's reply.
func clusterCall[Q, A any](call func(Q) A) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Q
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, call(req))
	}
}

func (s *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaseRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, errors.New("worker_id is required"))
		return
	}
	// The coordinator holds the request until a unit is claimable or
	// the clamped wait ends; a worker that hangs up ends it too.
	writeJSON(w, http.StatusOK, s.coord.LeaseWait(r.Context(), req))
}

// --- store proxy -----------------------------------------------------------

// storeNS resolves a proxy path ("campaigns/<key>/trial-000001",
// "snapshots/<hash>") into its namespace and record name. The store's
// own segment validation rejects traversal attempts.
func (s *Server) storeNS(path string) (*store.Namespace, string, error) {
	parts := strings.Split(path, "/")
	if len(parts) < 2 {
		return nil, "", fmt.Errorf("store path %q needs at least namespace/record", path)
	}
	ns, err := s.cfg.Store.Namespace(parts[:len(parts)-1]...)
	if err != nil {
		return nil, "", err
	}
	return ns, parts[len(parts)-1], nil
}

func (s *Server) handleStoreNSGet(w http.ResponseWriter, r *http.Request) {
	ns, name, err := s.storeNS(r.PathValue("path"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data, ok, err := ns.GetRaw(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no record %s", name))
		return
	}
	w.Header().Set("Content-Type", ns.ContentType())
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleStoreNSPut(w http.ResponseWriter, r *http.Request) {
	ns, name, err := s.storeNS(r.PathValue("path"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStoreBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// PutRaw checks the record: a snapshot record must parse, sit at
	// its own address and verify; any other record must be JSON.
	if err := ns.PutRaw(name, data); errors.Is(err, store.ErrInvalidRecord) {
		writeError(w, http.StatusBadRequest, err)
		return
	} else if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreRunPut accepts one run record from a worker. The record
// is decoded and stored through store.Put, which verifies it (content
// address matches the spec, stats reproduce their snapshot) — the
// proxy never trusts worker bytes further than the store would.
func (s *Server) handleStoreRunPut(w http.ResponseWriter, r *http.Request) {
	var rec store.Record
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxStoreBodyBytes))
	if err := dec.Decode(&rec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid record: %w", err))
		return
	}
	if rec.Key != r.PathValue("key") {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("record key %s does not match path", rec.Key))
		return
	}
	if err := s.cfg.Store.Put(&rec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- cluster-routed execution ----------------------------------------------

// awaitSweep waits for the sweep job j over specs and returns their records, read back from the store in
// spec order. ctx's cancellation abandons the wait, not the job: the
// job runs on, and a re-request joins it.
func (s *Server) awaitSweep(ctx context.Context, j *cluster.Job, specs []harness.Spec) ([]*store.Record, error) {
	select {
	case <-j.Done():
		if err := j.Err(); err != nil {
			return nil, err
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	recs := make([]*store.Record, len(specs))
	for i, spec := range specs {
		rec, ok, err := s.cfg.Store.GetSpec(spec)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("service: sweep cell %s completed but stored no record", store.KeyOf(spec))
		}
		recs[i] = rec
	}
	return recs, nil
}

// clusterCampaign runs one campaign through the coordinator and
// returns the assembled report — the byte-identical artifact the
// coordinator persisted via campaign.Assemble.
func (s *Server) clusterCampaign(spec campaign.Spec, onProgress func(done, total int)) (*campaign.Report, error) {
	j, err := s.coord.SubmitCampaign(spec, onProgress)
	if err != nil {
		return nil, err
	}
	// Publish the resume state (trials recovered from the store at
	// submission) before any lease completes.
	onProgress(j.Progress())
	<-j.Done()
	if err := j.Err(); err != nil {
		return nil, err
	}
	key := campaign.KeyOf(spec)
	rep, ok, err := s.loader.LoadReport(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("service: campaign %s finished but stored no report", key)
	}
	return rep, nil
}
