package core

import (
	"repro/internal/machine"
	"repro/internal/stats"
)

// barrierOp is one proactive checkpoint at a barrier (§4.2.1): a
// processor interested in checkpointing sends BarCK from inside the
// barrier's Update section; every processor writes its dirty lines
// back in the background while running (or spinning) towards the
// barrier; the last arriver may not set the flag until the checkpoint
// completes, so everyone leaves the barrier with a tiny ICHK.
type barrierOp struct {
	r         *Rebound
	initiator int
	remaining int
	gates     []func()
	recIdx    int
	lines     uint64
}

// BarrierUpdate implements machine.Scheme for Rebound. With the
// optimisation enabled, a processor whose interval is at least half
// expired volunteers as the BarCK initiator (the BarCK_sent arbitration
// of Fig 4.2d — at most one initiator per episode).
func (r *Rebound) BarrierUpdate(p *machine.Proc, last bool) {
	if !r.opts.BarrierOpt || r.barOp != nil {
		return
	}
	ps := r.ps[p.ID()]
	if ps.busy || ps.draining || ps.inBarCk {
		return
	}
	if p.InstrSinceCkpt() < r.m.Cfg.CkptInterval/2 {
		return // not interested in checkpointing yet
	}
	op := &barrierOp{
		r:         r,
		initiator: p.ID(),
		remaining: r.m.Cfg.NProcs,
		recIdx:    -1,
	}
	r.barOp = op
	op.recIdx = r.record(stats.CkptRecord{
		Initiator:  p.ID(),
		Size:       r.m.Cfg.NProcs,
		SizeStatic: r.m.Cfg.NProcs,
		SizeExact:  r.m.Cfg.NProcs,
		Start:      r.m.Now(),
		Barrier:    true,
	})
	r.m.Ctrl.Log().Stub(r.m.Now())
	// BarCK messages go out after the Update critical section exits.
	for _, q := range r.m.Procs {
		q := q
		r.m.Send(p.ID(), q.ID(), func() { op.join(q) })
	}
}

// join makes processor q take the proactive checkpoint: a brief stop to
// snapshot, then background writebacks while execution (or the spin at
// the barrier flag) continues.
func (op *barrierOp) join(q *machine.Proc) {
	r := op.r
	qs := r.ps[q.ID()]
	if qs.busy || qs.draining || qs.inBarCk || qs.rop != nil {
		// Engaged in another operation: it sits this one out.
		op.notify()
		return
	}
	qs.inBarCk = true
	q.InCkpt = true
	q.RequestPause(func() {
		rec := q.BeginCheckpoint()
		op.lines += q.MarkDelayed()
		qs.draining = true
		// Barrier-checkpoint writebacks drain at full speed: they hide
		// behind the barrier wait, and the flag is held until they end.
		q.StartDrain(func() {
			qs.draining = false
			q.FinishCheckpoint(rec)
			qs.inBarCk = false
			q.InCkpt = false
			op.notify()
			r.releaseHook(qs)
		})
		q.RushDrain()
		q.OpenNextEpoch(q.Resume)
	})
}

// notify counts one processor done (Update section executed and
// writebacks drained); the last one completes the checkpoint and lets
// the flag be written (Fig 4.2c).
func (op *barrierOp) notify() {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	r := op.r
	if op.recIdx >= 0 {
		rec := &r.m.St.Checkpoints[op.recIdx]
		rec.End = r.m.Now()
		rec.Lines = op.lines
	}
	r.barOp = nil
	gates := op.gates
	op.gates = nil
	for _, proceed := range gates {
		proceed()
	}
}

// detachFromBarCk removes a processor that is being rolled back from an
// in-flight barrier checkpoint: its drain was aborted by the rollback, so
// it is counted out to let the operation (and the held flag) complete.
func (r *Rebound) detachFromBarCk(ps *pstate) {
	if !ps.inBarCk {
		return
	}
	ps.inBarCk = false
	ps.draining = false
	ps.p.InCkpt = false
	if r.barOp != nil {
		r.barOp.notify()
	}
}

// BarrierRelease implements machine.Scheme for Rebound: while a barrier
// checkpoint is in flight, the last arriver's flag write is held until
// it completes.
func (r *Rebound) BarrierRelease(p *machine.Proc, proceed func()) {
	if r.barOp == nil {
		proceed()
		return
	}
	r.barOp.gates = append(r.barOp.gates, proceed)
}
