// Package core implements the paper's contribution: the checkpointing
// schemes. Global (and Global_DWB) is the ReVive-style baseline where
// all processors checkpoint together; Rebound is coordinated local
// checkpointing on directory coherence — interaction sets are collected
// with the distributed protocols of §3.3.4/§3.3.5, writebacks can be
// delayed (§4.1), several checkpoints stay live via the Dep register
// sets (§4.2), and checkpointing at barriers can be hidden behind the
// barrier imbalance (§4.2.1).
package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options selects Rebound variants (Fig 4.3a's configuration list).
type Options struct {
	// DelayedWB enables the delayed (background) writebacks of §4.1.
	DelayedWB bool
	// BarrierOpt enables the proactive checkpoint at barriers (§4.2.1).
	BarrierOpt bool
	// TwoLevel enables hierarchical two-level Rebound (the paper's own
	// "scalable" sketch, §7): interaction-set collection is confined to
	// the initiator's processor group; an attempt whose producers cross
	// the group boundary is never committed — it escalates to an outer,
	// chip-wide coordinated checkpoint, which also runs periodically so
	// cross-group dependences are bounded in age. The committed-
	// checkpoint invariant (no member checkpoints ahead of an
	// un-checkpointed producer) holds at both levels, so recovery is
	// unchanged.
	TwoLevel bool
}

// Two-level geometry: processors are statically partitioned into
// groups of twoLevelGroupProcs; after twoLevelOuterEvery committed
// local checkpoints the next initiation is promoted to the outer
// level. Machines with fewer processors than one group degenerate to
// a single group (local attempts never cross, outer still runs on the
// period — the two-level protocol stays exercised at small scales).
const (
	twoLevelGroupProcs = 8
	twoLevelOuterEvery = 4
)

// group returns the static processor group of id.
func (r *Rebound) group(id int) int { return id / twoLevelGroupProcs }

// Rebound is the coordinated local checkpointing scheme.
type Rebound struct {
	m    *machine.Machine
	opts Options
	rng  *sim.RNG
	ps   []*pstate

	barOp *barrierOp

	// Two-level bookkeeping (Options.TwoLevel): sinceOuter counts local
	// checkpoints committed since the last outer one; wantOuter latches
	// an escalation (a local attempt hit a cross-group producer) until
	// an outer checkpoint commits. Plain data — captured in snapshots.
	sinceOuter int
	wantOuter  bool

	// closureSize scratch, pre-sized in Attach and reused across
	// checkpoints so the twice-per-checkpoint closure computation does
	// not allocate.
	clIn    []bool
	clQueue []int
}

// NewRebound returns a Rebound scheme with the given options.
func NewRebound(opts Options) *Rebound { return &Rebound{opts: opts} }

// Name implements machine.Scheme.
func (r *Rebound) Name() string {
	switch {
	case r.opts.TwoLevel:
		return "Rebound_2L"
	case r.opts.DelayedWB && r.opts.BarrierOpt:
		return "Rebound_Barr"
	case r.opts.DelayedWB:
		return "Rebound"
	case r.opts.BarrierOpt:
		return "Rebound_NoDWB_Barr"
	default:
		return "Rebound_NoDWB"
	}
}

// Attach implements machine.Scheme.
func (r *Rebound) Attach(m *machine.Machine) {
	r.m = m
	r.rng = sim.NewRNG(m.Cfg.Seed ^ 0xc0ffee)
	r.ps = make([]*pstate, m.Cfg.NProcs)
	for i, p := range m.Procs {
		r.ps[i] = &pstate{p: p}
	}
	r.clIn = make([]bool, m.Cfg.NProcs)
	r.clQueue = make([]int, 0, m.Cfg.NProcs)
}

// pstate is the per-processor protocol state.
type pstate struct {
	p *machine.Proc
	// busy marks participation in a checkpoint or rollback operation
	// (Busy replies go out while set).
	busy bool
	// draining marks a delayed checkpoint whose background writebacks
	// have not finished; new checkpoint requests are Nacked and the
	// drain is rushed (§4.1).
	draining bool
	// inBarCk marks participation in a barrier-optimised checkpoint.
	inBarCk bool
	// cop/rop point at the operation this processor is a member of.
	cop *ckptOp
	rop *rollOp
	// retryNotBefore implements the random backoff after a Busy
	// collision (§3.3.4).
	retryNotBefore sim.Cycle
	// pausedAt is when the processor stopped for the current operation.
	pausedAt sim.Cycle
	// ioResume is the pending output-I/O continuation: I/O proceeds
	// once a checkpoint covering this processor completes (§6.4).
	ioResume func()
	// redetect marks a fault detection that arrived while this
	// processor was already inside a rollback. The in-flight restore
	// covers a fault that predates it, but a fault injected after the
	// member's state was restored (the processor is still held paused
	// by the protocol) would be silently absorbed — so the detection is
	// re-evaluated when the rollback releases the processor (see
	// startRollback and rollOp.execute).
	redetect bool
}

func (r *Rebound) setBusy(ps *pstate, b bool) {
	ps.busy = b
	ps.p.InCkpt = b
}

// releaseHook runs whenever a processor leaves an operation; it fires a
// pending I/O continuation.
func (r *Rebound) releaseHook(ps *pstate) {
	if !ps.busy && ps.ioResume != nil {
		resume := ps.ioResume
		ps.ioResume = nil
		resume()
	}
}

func (r *Rebound) backoff() sim.Cycle {
	return sim.Cycle(8000 + r.rng.Intn(8000))
}

// IntervalExpired implements machine.Scheme: the processor initiates a
// checkpoint of its interaction set (§3.3.4).
func (r *Rebound) IntervalExpired(p *machine.Proc) {
	ps := r.ps[p.ID()]
	if ps.busy || ps.draining || r.m.Now() < ps.retryNotBefore {
		return
	}
	r.initiateCkpt(ps, false)
}

// OutputIO implements machine.Scheme: output I/O must be preceded by a
// checkpoint; the continuation fires when one covering this processor
// completes.
func (r *Rebound) OutputIO(p *machine.Proc, resume func()) {
	ps := r.ps[p.ID()]
	ps.ioResume = resume
	if ps.busy || ps.draining {
		// Already checkpointing (or draining one): that checkpoint
		// satisfies the I/O; releaseHook fires the continuation.
		if ps.draining {
			p.RushDrain()
		}
		return
	}
	r.initiateCkpt(ps, true)
}

// FaultDetected implements machine.Scheme (see rollback.go).
func (r *Rebound) FaultDetected(p *machine.Proc) { r.startRollback(r.ps[p.ID()]) }

// closureSize computes the interaction set a synchronous collection
// would gather at this instant: a transitive closure over MyProducers,
// honouring the protocol's decline rule (a producer joins only if its
// MyConsumers names the requester). With exact=true the measurement
// shadows (ideal write signature) are used instead; Table 6.1 row 1
// compares the two.
func (r *Rebound) closureSize(initiator int, exact bool) int {
	in := r.clIn
	for i := range in {
		in[i] = false
	}
	queue := r.clQueue[:0]
	in[initiator] = true
	queue = append(queue, initiator)
	size := 1
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		regs := r.m.Procs[q].Deps().Current()
		producers := regs.MyProducers
		if exact {
			producers = regs.PExact
		}
		producers.ForEach(func(pr int) {
			if in[pr] {
				return
			}
			prRegs := r.m.Procs[pr].Deps().Current()
			consumers := prRegs.MyConsumers
			if exact {
				consumers = prRegs.CExact
			}
			if !consumers.Test(q) {
				return
			}
			in[pr] = true
			size++
			queue = append(queue, pr)
		})
	}
	r.clQueue = queue[:0]
	return size
}

// reboundState is Rebound's snapshot form (machine.SchemeSnapshotter):
// the backoff RNG plus the plain-data residue of each processor's
// protocol state. Everything else (busy flags, operation pointers,
// continuations) is structurally nil/false at a quiescent point.
type reboundState struct {
	rng        uint64
	ps         []reboundProcState
	sinceOuter int
	wantOuter  bool
}

type reboundProcState struct {
	retryNotBefore sim.Cycle
	pausedAt       sim.Cycle
	redetect       bool
}

// SchemeQuiescent implements machine.SchemeSnapshotter: no checkpoint,
// rollback or barrier operation in flight anywhere, no held I/O
// continuations, no drains.
func (r *Rebound) SchemeQuiescent() bool {
	if r.barOp != nil {
		return false
	}
	for _, ps := range r.ps {
		if ps.busy || ps.draining || ps.inBarCk || ps.cop != nil || ps.rop != nil || ps.ioResume != nil {
			return false
		}
	}
	return true
}

// SchemeSnapshot implements machine.SchemeSnapshotter.
func (r *Rebound) SchemeSnapshot() any {
	st := &reboundState{
		rng:        r.rng.State(),
		ps:         make([]reboundProcState, len(r.ps)),
		sinceOuter: r.sinceOuter,
		wantOuter:  r.wantOuter,
	}
	for i, ps := range r.ps {
		st.ps[i] = reboundProcState{
			retryNotBefore: ps.retryNotBefore,
			pausedAt:       ps.pausedAt,
			redetect:       ps.redetect,
		}
	}
	return st
}

// SchemeRestore implements machine.SchemeSnapshotter.
func (r *Rebound) SchemeRestore(state any) {
	st := state.(*reboundState)
	r.rng.Restore(st.rng)
	r.barOp = nil
	r.sinceOuter = st.sinceOuter
	r.wantOuter = st.wantOuter
	for i, ps := range r.ps {
		ps.busy, ps.draining, ps.inBarCk = false, false, false
		ps.cop, ps.rop = nil, nil
		ps.ioResume = nil
		ps.retryNotBefore = st.ps[i].retryNotBefore
		ps.pausedAt = st.ps[i].pausedAt
		ps.redetect = st.ps[i].redetect
	}
}

// reboundStateImage is the serializable mirror of reboundState for the
// persistent-snapshot codec (machine.SchemePersister).
type reboundStateImage struct {
	RNG   uint64             `json:"rng"`
	Procs []reboundProcImage `json:"procs"`
	// Two-level fields are omitted when zero so the encoded bytes of
	// every pre-existing scheme's state are unchanged (persisted
	// snapshots stay byte-stable across this addition).
	SinceOuter int  `json:"since_outer,omitempty"`
	WantOuter  bool `json:"want_outer,omitempty"`
}

type reboundProcImage struct {
	RetryNotBefore uint64 `json:"retry_not_before"`
	PausedAt       uint64 `json:"paused_at"`
	Redetect       bool   `json:"redetect"`
}

// EncodeSchemeState implements machine.SchemePersister.
func (r *Rebound) EncodeSchemeState(state any) ([]byte, error) {
	st, ok := state.(*reboundState)
	if !ok {
		return nil, fmt.Errorf("core: rebound scheme state has type %T", state)
	}
	im := reboundStateImage{
		RNG:        st.rng,
		Procs:      make([]reboundProcImage, len(st.ps)),
		SinceOuter: st.sinceOuter,
		WantOuter:  st.wantOuter,
	}
	for i, ps := range st.ps {
		im.Procs[i] = reboundProcImage{
			RetryNotBefore: uint64(ps.retryNotBefore),
			PausedAt:       uint64(ps.pausedAt),
			Redetect:       ps.redetect,
		}
	}
	return json.Marshal(im)
}

// DecodeSchemeState implements machine.SchemePersister.
func (r *Rebound) DecodeSchemeState(data []byte) (any, error) {
	var im reboundStateImage
	if err := json.Unmarshal(data, &im); err != nil {
		return nil, fmt.Errorf("core: rebound scheme state: %w", err)
	}
	if len(im.Procs) != len(r.ps) {
		return nil, fmt.Errorf("core: rebound scheme state has %d procs, want %d", len(im.Procs), len(r.ps))
	}
	st := &reboundState{
		rng:        im.RNG,
		ps:         make([]reboundProcState, len(im.Procs)),
		sinceOuter: im.SinceOuter,
		wantOuter:  im.WantOuter,
	}
	for i, ps := range im.Procs {
		st.ps[i] = reboundProcState{
			retryNotBefore: sim.Cycle(ps.RetryNotBefore),
			pausedAt:       sim.Cycle(ps.PausedAt),
			redetect:       ps.Redetect,
		}
	}
	return st, nil
}

// record appends a checkpoint record and returns its index.
func (r *Rebound) record(rec stats.CkptRecord) int {
	r.m.St.Checkpoints = append(r.m.St.Checkpoints, rec)
	return len(r.m.St.Checkpoints) - 1
}
