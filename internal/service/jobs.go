package service

// Background jobs: a fault campaign or a frontier exploration is
// minutes of simulation, so both kinds share one asynchronous
// lifecycle. POST joins an identical running job, answers a finished
// one from the store ("cached": true), or admits and starts a new one
// (202). GET polls progress, shows a failed job's error, or serves the
// stored report. Running jobs of every kind share the one QueueDepth;
// failed tombstones hold no slot, and a re-POST restarts them. A
// finished job is dropped and its stored report becomes the source of
// truth; a daemon killed mid-job resumes it on the next POST from the
// units it persisted. A kind (campaign.go, explore.go) supplies only
// what differs.

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/retry"
)

// Job statuses, as carried in JobResponse.Status.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// JobResponse answers both endpoints of a background job kind; R is
// the kind's report type.
type JobResponse[R any] struct {
	Key string `json:"key"`
	// Status is StatusRunning, StatusDone or StatusFailed.
	Status string `json:"status"`
	// Done/Total count the kind's work units (a campaign's trials, an
	// exploration's cell evaluations); units restored from the store by
	// a resumed job count as done.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cached is true when the report was served from the store without
	// simulating anything for this request.
	Cached bool   `json:"cached,omitempty"`
	Report *R     `json:"report,omitempty"`
	Error  string `json:"error,omitempty"`
}

// jobRequest is a kind's POST body: it resolves against the server's
// default scale into a validated spec.
type jobRequest[S any] interface {
	Spec(harness.Scale) (S, error)
}

// jobKind defines one kind of background job: Q is its request body,
// S its validated spec and R its report.
type jobKind[Q jobRequest[S], S, R any] struct {
	s    *Server
	path string // endpoint root, e.g. "/v1/campaigns"
	noun string // for errors: "no <noun> stored under ..."

	keyOf func(S) string
	load  func(key string) (*R, bool, error)
	// start is the unit count of a fresh job; total that of a finished
	// report.
	start func(S) int
	total func(*R) int
	// run executes one job to completion, reporting unit progress;
	// runJob admits it.
	run func(spec S, onProgress func(done, total int)) (*R, error)

	started, running, unitsDone *expvar.Int
}

// register mounts the kind's POST and GET endpoints.
func (k *jobKind[Q, S, R]) register() {
	k.s.mux.HandleFunc("POST "+k.path, k.handlePost)
	k.s.mux.HandleFunc("GET "+k.path+"/{key}", k.handleGet)
}

// job tracks one background job. The server's jobs map holds running
// and failed jobs; finished ones are dropped (their report lives in
// the store).
type job struct {
	mu     sync.Mutex
	status string // StatusRunning | StatusFailed
	done   int
	total  int
	err    error

	unitsDone *expvar.Int // the kind's units-done counter
}

func (j *job) running() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusRunning
}

// progress is the runner's onProgress: done never moves backwards, and
// only the units a job newly completed (or restored) advance the
// kind's counter.
func (j *job) progress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if done > j.done {
		j.unitsDone.Add(int64(done - j.done))
		j.done = done
	}
	j.total = total
}

// response is j's answer to a POST or GET: status and progress, plus
// the error of a failed job. A running or failed job has no report.
func response[R any](key string, j *job) JobResponse[R] {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := JobResponse[R]{Key: key, Status: j.status, Done: j.done, Total: j.total}
	if j.err != nil {
		resp.Error = j.err.Error()
	}
	return resp
}

// done is the answer for a report read from the store.
func (k *jobKind[Q, S, R]) done(key string, rep *R) JobResponse[R] {
	n := k.total(rep)
	return JobResponse[R]{Key: key, Status: StatusDone, Done: n, Total: n, Cached: true, Report: rep}
}

// backgroundJobsLocked counts the running background jobs of every
// kind — the admission quantity POSTs compare against QueueDepth.
// Failed tombstones do not count. Caller holds jobsMu.
func (s *Server) backgroundJobsLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.running() {
			n++
		}
	}
	return n
}

func (k *jobKind[Q, S, R]) handlePost(w http.ResponseWriter, r *http.Request) {
	s := k.s
	var req Q
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := req.Spec(s.cfg.Scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := k.keyOf(spec)
	id := k.path + "/" + key

	s.jobsMu.Lock()
	if j, ok := s.jobs[id]; ok && j.running() {
		s.jobsMu.Unlock()
		writeJSON(w, http.StatusAccepted, response[R](key, j))
		return
	}
	s.jobsMu.Unlock()

	// Store probe outside jobsMu: decoding a large stored report must
	// not stall progress polls.
	if rep, ok, err := k.load(key); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	} else if ok {
		s.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, k.done(key, rep))
		return
	}

	s.jobsMu.Lock()
	// Re-check under the lock: a concurrent POST may have started the
	// job while the store was probed.
	if j, ok := s.jobs[id]; ok && j.running() {
		s.jobsMu.Unlock()
		writeJSON(w, http.StatusAccepted, response[R](key, j))
		return
	}
	if s.backgroundJobsLocked() >= s.cfg.QueueDepth {
		s.jobsMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errQueueFull)
		return
	}
	// A failed tombstone for this key is superseded by the restart
	// (units that did complete were persisted, so the restart resumes).
	j := &job{status: StatusRunning, total: k.start(spec), unitsDone: k.unitsDone}
	s.jobs[id] = j
	s.jobsMu.Unlock()

	k.started.Add(1)
	k.running.Add(1)
	go k.runJob(id, j, spec)
	writeJSON(w, http.StatusAccepted, response[R](key, j))
}

// runJob executes one background job to completion. The daemon's
// graceful shutdown does not wait for it: completed units are already
// on disk, so the next POST of the same spec resumes.
func (k *jobKind[Q, S, R]) runJob(id string, j *job, spec S) {
	s := k.s
	defer k.running.Add(-1)
	release := func() {}
	if s.coord == nil {
		// Single node: the job holds the whole runner, as a sweep does.
		// A coordinator admits each lease in its worker loop instead.
		release = s.acquireAllBackground()
	}
	_, err := k.run(spec, j.progress)
	release()

	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if err != nil {
		j.mu.Lock()
		j.status, j.err = StatusFailed, err
		j.mu.Unlock()
		return
	}
	// Done: the stored report is now the source of truth.
	delete(s.jobs, id)
}

func (k *jobKind[Q, S, R]) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !jobKeyRE.MatchString(key) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no %s stored under %q", k.noun, key))
		return
	}
	s := k.s
	s.jobsMu.Lock()
	j, ok := s.jobs[k.path+"/"+key]
	s.jobsMu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, response[R](key, j))
		return
	}
	rep, found, err := k.load(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("no %s stored under %q", k.noun, key))
		return
	}
	writeJSON(w, http.StatusOK, k.done(key, rep))
}

// jobKeyRE matches every kind's key, a hex sha256.
var jobKeyRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// SubmitAndPoll is the client side of a background job: it POSTs req
// to base+path, then polls base+path/{key} every poll interval until
// the job is done, passing progress to the callback, and returns the
// report. Every transport operation retries under policy, so a brief
// server restart costs a bounded wait, not the job: the server resumes
// it from its persisted units on the next POST.
func SubmitAndPoll[R any](base, path string, req any, poll time.Duration,
	policy retry.Policy, progress func(done, total int)) (*R, error) {
	base = strings.TrimSuffix(base, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	exchange := func(what string, do func() (*http.Response, error)) (JobResponse[R], error) {
		var jr JobResponse[R]
		err := policy.Do(context.Background(), func() error {
			resp, err := do()
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
				return fmt.Errorf("%s: %s: %s", what, resp.Status, bytes.TrimSpace(b))
			}
			return json.NewDecoder(resp.Body).Decode(&jr)
		})
		return jr, err
	}

	jr, err := exchange("POST "+path, func() (*http.Response, error) {
		return http.Post(base+path, "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return nil, err
	}
	key := jr.Key
	for {
		switch jr.Status {
		case StatusDone:
			if jr.Report != nil {
				progress(jr.Total, jr.Total)
				return jr.Report, nil
			}
			// Progress races report persistence on the server; fetch
			// once more for the full body.
		case StatusFailed:
			return nil, fmt.Errorf("%s/%s failed on the server: %s", path, key, jr.Error)
		}
		if jr.Total > 0 {
			progress(jr.Done, jr.Total)
		}
		time.Sleep(poll)
		if jr, err = exchange("GET "+path+"/"+key, func() (*http.Response, error) {
			return http.Get(base + path + "/" + key)
		}); err != nil {
			return nil, err
		}
	}
}
