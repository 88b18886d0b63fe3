// Package cluster distributes reboundd's sweeps and fault campaigns
// across a coordinator/worker fleet. The single-node stack already made
// every unit of work location-independent — a campaign trial is a pure
// function of (campaign key, index), a sweep cell a pure function of
// its Spec, and warm machine state ships as a content-addressed
// snapshot — so distribution is leases over index ranges, not a new
// execution model.
//
// The protocol is four POST endpoints on the coordinator plus a store
// proxy, all JSON over HTTP:
//
//	POST /v1/cluster/join       register; returns worker id + lease TTL
//	POST /v1/cluster/lease      pull a lease (work-stealing style: the
//	                            coordinator hands out shrinking ranges
//	                            of the remaining work, and holds an
//	                            idle worker's request until work
//	                            appears — a long poll)
//	POST /v1/cluster/complete   report a lease's finished units
//	POST /v1/cluster/heartbeat  extend the worker's leases
//	GET/PUT /v1/store/{...}     the shared store tier (snapshots in,
//	                            trial/cell records back)
//
// Lease semantics: a lease is a TTL-bounded claim on a set of trial
// indices (campaign) or cells (sweep). Heartbeats extend it; a worker
// that crashes or partitions simply stops heartbeating, and the
// coordinator reclaims the lease lazily and re-issues its units. A
// unit whose run or push fails is reported with its lease and
// re-issued too, until MaxUnitFailures reports fail its job.
// Retries are free by construction: every unit's record is
// content-addressed and validated on completion (campaign trials
// self-identify via index + derived seed, sweep records via their spec
// hash), so a re-run writes the byte-identical record and a duplicate
// completion is a no-op. The coordinator never trusts a worker's
// claim — it marks a unit done only after loading and validating the
// record the worker pushed through the store.
package cluster

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/harness"
)

// Lease kinds.
const (
	KindCampaign = "campaign"
	KindSweep    = "sweep"
)

// Lease is a TTL-bounded claim on a slice of one job's work.
type Lease struct {
	ID  uint64 `json:"id"`
	Job string `json:"job"`
	// Kind selects which payload below is set.
	Kind string `json:"kind"`
	// Campaign carries the full campaign spec so any worker can compute
	// any trial without further coordination; Indices the trial indices
	// this lease claims.
	Campaign *campaign.Spec `json:"campaign,omitempty"`
	Indices  []int          `json:"indices,omitempty"`
	// Specs carries the sweep cells this lease claims.
	Specs []harness.Spec `json:"specs,omitempty"`
}

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Name is the worker's self-chosen label (host/pid flavored); the
	// coordinator makes it unique.
	Name string `json:"name"`
	// Procs is the worker's local parallelism, for sizing leases.
	Procs int `json:"procs"`
}

// JoinResponse assigns the worker its identity and timing contract.
type JoinResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is how long a lease (and the worker's liveness)
	// lasts without a heartbeat.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// LeaseRequest pulls work. An unknown WorkerID is re-registered
// implicitly (a coordinator restart must not strand its fleet).
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// WaitMillis is how long the coordinator may hold the request while
	// it has no unit to hand out: it answers as soon as a unit becomes
	// claimable, so an idle worker asks again right after an empty
	// answer and never sleeps. The coordinator clamps it to [0,
	// LeaseTTL/4]; 0 answers at once.
	WaitMillis int64 `json:"wait_ms,omitempty"`
	// ExitOnIdle asks for an Idle answer at once instead of a wait
	// through an idle cluster: the worker stops on it.
	ExitOnIdle bool `json:"exit_on_idle,omitempty"`
}

// LeaseResponse carries a lease, or none when the request's wait ended
// without one.
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
	// Idle is true when the coordinator holds no jobs at all (as
	// opposed to all remaining work being leased out). A worker
	// configured with ExitOnIdle stops on it.
	Idle bool `json:"idle,omitempty"`
}

// CompleteRequest reports a lease's finished units. The worker has
// already pushed every unit's record through the store tier; the
// coordinator validates each claimed unit against the store before
// marking it done.
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  uint64 `json:"lease_id"`
	// Job names the job the lease belonged to, so a completion arriving
	// after its lease expired (the worker stalled past the TTL but the
	// records are pushed and valid) still settles against the right job.
	Job string `json:"job"`
	// Indices are the campaign trial indices completed (Kind campaign).
	Indices []int `json:"indices,omitempty"`
	// Keys are the store record keys completed (Kind sweep).
	Keys []string `json:"keys,omitempty"`
	// Failed reports the leased units whose run or push failed. The
	// coordinator leases such a unit again, and fails its job once the
	// unit has failed MaxUnitFailures times.
	Failed []UnitFailure `json:"failed,omitempty"`
}

// UnitFailure names one failed unit of a lease and why it failed.
type UnitFailure struct {
	Index int    `json:"index,omitempty"` // campaign trial index
	Key   string `json:"key,omitempty"`   // sweep record key
	Err   string `json:"err"`
}

// CompleteResponse reports how many claimed units were accepted (a
// duplicate or invalid claim is skipped, not an error).
type CompleteResponse struct {
	Accepted int `json:"accepted"`
}

// HeartbeatRequest extends the liveness of a worker and its leases.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Leases is how many leases the worker currently holds.
	Leases int `json:"leases"`
}

// Protocol is the coordinator as a worker sees it. HTTPProtocol speaks
// it over the wire; Direct binds it straight to an in-process
// Coordinator (every reboundd runs its own worker that way, so
// a cluster of one still makes progress).
type Protocol interface {
	Join(ctx context.Context, req JoinRequest) (JoinResponse, error)
	Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error)
	Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
}

// Direct is the in-process Protocol: method calls, no transport, no
// retries needed. Its Lease waits like the HTTP endpoint does
// (Coordinator.LeaseWait).
type Direct struct{ C *Coordinator }

func (d Direct) Join(_ context.Context, req JoinRequest) (JoinResponse, error) {
	return d.C.Join(req), nil
}

func (d Direct) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return d.C.LeaseWait(ctx, req), nil
}

func (d Direct) Complete(_ context.Context, req CompleteRequest) (CompleteResponse, error) {
	return d.C.Complete(req), nil
}

func (d Direct) Heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return d.C.Heartbeat(req), nil
}
