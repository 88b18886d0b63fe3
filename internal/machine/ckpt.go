package machine

import (
	"repro/internal/sim"
)

// --- snapshots, checkpoint records and rollback --------------------------

func (p *Proc) takeSnapshot() Snapshot {
	return Snapshot{
		stream: p.stream.Snapshot(),
		micro:  p.micro,
		rng:    p.rng.State(),
		tick:   p.tick,
	}
}

// restoreRegs rewinds the processor's register state to r.
func (p *Proc) restoreRegs(r *Snapshot) {
	p.stream.Restore(r.stream)
	p.micro = r.micro
	p.rng.Restore(r.rng)
	p.tick = r.tick
}

// newRec takes a checkpoint record from the processor's pool (or the
// heap). Pooling matters once machines are recycled across campaign
// trials: every trial re-creates its checkpoint history, and the per-
// record allocation was a fixed per-trial cost.
func (p *Proc) newRec() *CkptRec {
	if n := len(p.recFree); n > 0 {
		r := p.recFree[n-1]
		p.recFree = p.recFree[:n-1]
		*r = CkptRec{}
		return r
	}
	return new(CkptRec)
}

// freeRec returns a record to the pool. The caller must guarantee no
// live closure still references it (completed records only, or whole-
// machine restore where every outstanding closure is discarded).
func (p *Proc) freeRec(r *CkptRec) { p.recFree = append(p.recFree, r) }

// BeginCheckpoint captures the processor's register state at the
// checkpoint sync point and returns the pending record. The caller
// must be holding the processor paused. The new interval is not opened
// yet — call OpenNextEpoch (which may stall on Dep register pressure)
// before resuming.
func (p *Proc) BeginCheckpoint() *CkptRec {
	rec := p.newRec()
	rec.OpenedEpoch = p.curEpoch + 1
	rec.Snap = p.takeSnapshot()
	rec.CompletedAt = pendingCycle
	p.history = append(p.history, rec)
	p.instrSinceCkpt = 0
	return rec
}

// FinishCheckpoint marks rec complete at the current cycle and prunes
// stale history and log entries.
func (p *Proc) FinishCheckpoint(rec *CkptRec) {
	rec.CompletedAt = p.m.Eng.Now()
	p.pruneHistory()
}

// OpenNextEpoch opens the next checkpoint interval, recycling Dep
// register sets whose following checkpoint is older than L (§4.2), and
// calls ready (possibly later: the processor stalls when all sets are
// busy). The caller resumes the processor from ready.
func (p *Proc) OpenNextEpoch(ready func()) {
	if p.openPending {
		panic("machine: OpenNextEpoch while a previous open is pending (scheme bug)")
	}
	p.openPending = true
	next := p.curEpoch + 1
	gen := p.restoreGen
	p.tryOpen(gen, next, ready)
}

func (p *Proc) tryOpen(gen, epoch uint64, ready func()) {
	if p.restoreGen != gen {
		return // rolled back while waiting; the open is stale
	}
	p.recycleDeps()
	if p.deps.Open(epoch) {
		if p.depStallSince != 0 {
			p.m.St.DepStallCycles += uint64(p.m.Eng.Now() - p.depStallSince)
			p.depStallSince = 0
		}
		p.curEpoch = epoch
		p.openPending = false
		ready()
		return
	}
	// Out of Dep register sets: stall until the oldest becomes
	// recyclable (§4.2).
	if p.depStallSince == 0 {
		p.depStallSince = p.m.Eng.Now()
	}
	retry := p.m.Cfg.DetectLatency / 8
	if retry < 100 {
		retry = 100
	}
	p.m.Eng.Schedule(retry, func() { p.tryOpen(gen, epoch, ready) })
}

// recycleDeps releases Dep register sets by the §4.2 rule: the set for
// interval e frees once the checkpoint that follows e (OpenedEpoch ==
// e+1) completed at least L cycles ago.
func (p *Proc) recycleDeps() {
	now := p.m.Eng.Now()
	for p.deps.LiveCount() > 1 {
		e := p.deps.Oldest().Epoch
		rec := p.recByOpenedEpoch(e + 1)
		if rec == nil || rec.CompletedAt == pendingCycle || rec.CompletedAt+p.m.Cfg.DetectLatency > now {
			return
		}
		p.deps.Release(e)
	}
}

func (p *Proc) recByOpenedEpoch(e uint64) *CkptRec {
	for i := len(p.history) - 1; i >= 0; i-- {
		if p.history[i].OpenedEpoch == e {
			return p.history[i]
		}
	}
	return nil
}

// pruneHistory keeps a bounded tail of checkpoint records and lets the
// log drop entries no rollback can ever target again.
func (p *Proc) pruneHistory() {
	const keep = 8
	if len(p.history) <= keep {
		return
	}
	drop := len(p.history) - keep
	for _, r := range p.history[:drop] {
		if r.CompletedAt != pendingCycle {
			// Completed records have no outstanding references; pending
			// ones (never the case for the pruned prefix, but guarded)
			// may still be held by in-flight scheme closures.
			p.freeRec(r)
		}
	}
	p.history = append(p.history[:0], p.history[drop:]...)
	// Everything before the oldest retained checkpoint is dead weight.
	p.m.Ctrl.Log().Truncate(map[int]uint64{p.id: p.history[0].OpenedEpoch})
}

// LatestSafeCkpt returns the most recent checkpoint that completed at
// least L cycles ago — the rollback target of §3.3.5/§4.2. The initial
// (program start) record is always safe.
func (p *Proc) LatestSafeCkpt() *CkptRec {
	now := p.m.Eng.Now()
	L := p.m.Cfg.DetectLatency
	for i := len(p.history) - 1; i >= 1; i-- {
		rec := p.history[i]
		if rec.CompletedAt != pendingCycle && rec.CompletedAt+L <= now {
			return rec
		}
	}
	return p.history[0]
}

// History exposes the checkpoint records (tests, debugging).
func (p *Proc) History() []*CkptRec { return p.history }

// restoreTo rolls the processor's core-local state back to rec: caches
// invalidated, Dep registers reset, register state (stream,
// micro-sequence, RNG) restored, fault state cleared. Memory
// restoration from the log and the directory detach are done once per
// rollback set, by Machine.RollbackProcs.
func (p *Proc) restoreTo(rec *CkptRec) {
	// Abort any in-flight drain; the Delayed lines are being discarded.
	p.draining = false
	p.drainDone = nil
	p.drainRush = false
	p.delayedQueue = p.delayedQueue[:0]

	p.l1.InvalidateAll()
	p.l2.InvalidateAll()

	p.deps.ReleaseAllButCurrent()
	p.deps.ResetCurrent(rec.OpenedEpoch)
	p.curEpoch = rec.OpenedEpoch

	p.restoreRegs(&rec.Snap)
	p.instrSinceCkpt = 0

	p.faulty = false
	p.tainted = false

	// Drop undone checkpoints (any record newer than rec, including
	// pending ones: a fault during checkpointing aborts it, §3.3.4).
	// Completed ones return to the pool; a pending one may still be
	// referenced by the aborted checkpoint's writeback closure (which
	// will complete it individually), so it is only orphaned.
	for len(p.history) > 0 && p.history[len(p.history)-1].OpenedEpoch > rec.OpenedEpoch {
		last := p.history[len(p.history)-1]
		if last.CompletedAt != pendingCycle {
			p.freeRec(last)
		}
		p.history = p.history[:len(p.history)-1]
	}
	if p.depStallSince != 0 {
		p.m.St.DepStallCycles += uint64(p.m.Eng.Now() - p.depStallSince)
		p.depStallSince = 0
	}
	// Any dormancy (I/O wait, barrier gate) is cancelled by rollback:
	// the processor re-executes from the snapshot, and callbacks issued
	// before the rollback go stale via the generation counter.
	p.dormant = false
	p.restoreGen++
	p.openPending = false
}

// RollbackProcs rolls a closed set of processors back to their latest
// safe checkpoints: one pass over the log restores memory (reverse
// order, per-processor target epochs), each processor's local state is
// restored, and one directory pass detaches the whole set. It returns
// the per-processor target epochs, the number of log entries restored
// and the cycle at which the memory restoration completes.
func (m *Machine) RollbackProcs(set []*Proc) (map[int]uint64, uint64, sim.Cycle) {
	targets := make(map[int]uint64, len(set))
	recs := make(map[int]*CkptRec, len(set))
	pids := make([]int, len(set))
	for i, p := range set {
		rec := p.LatestSafeCkpt()
		targets[p.id] = rec.OpenedEpoch
		recs[p.id] = rec
		pids[i] = p.id
	}
	restored, done := m.Ctrl.Restore(targets)
	for _, p := range set {
		p.restoreTo(recs[p.id])
	}
	m.Dir.DetachProcs(pids)
	return targets, restored, done
}
