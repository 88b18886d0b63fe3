package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dep"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Machine snapshot/restore: the simulator applies the paper's own idea
// to itself. Rebound checkpoints a shared-memory machine cheaply so a
// fault can roll it back; the campaign engine re-runs the same
// deterministic fault-free warmup before thousands of fault scenarios,
// so the simulator checkpoints the warmed machine once and rolls the
// live machine back to it per trial — at memcpy speed, with no
// reallocation.
//
// What makes a machine snapshotable is the event queue: pending events
// are closures, and a closure that captured mutable protocol state
// (checkpoint-operation counters, pause continuations) cannot be
// re-fired after the state it captured is rewound. The snapshot
// contract is therefore *quiescence*: every pending event must be
// tagged (sim.Tag — step and drain events, whose behaviour is a pure
// function of restorable processor state), no processor may be paused,
// dormant, draining or mid-epoch-open, and a stateful scheme must
// report SchemeQuiescent. SettleForSnapshot runs the machine forward,
// one event at a time, until it reaches such a point (they recur
// between checkpoint rounds). Restore then rewinds everything in
// place — engine clock and queue, per-processor core/cache/Dep/stream
// state, checkpoint histories, flat memory/log/directory/DRAM state,
// statistics, and the scheme's own registers — re-binding the queue's
// closures from their tags.
//
// The line-interning table is deliberately NOT rewound: IDs are
// behaviourally invisible (every consumer either indexes flat arrays,
// whose post-capture tails are reset to their untouched defaults, or
// reports in address order), and keeping the table means a restored
// trial re-interns nothing.
type MachineSnapshot struct {
	valid bool
	cfg   Config

	// Engine state.
	now    sim.Cycle
	seq    uint64
	events []sim.SavedEvent

	// Machine progress counters.
	totalInstr  uint64
	targetInstr uint64

	// Shared components. tab is the interned-line prefix the flat
	// arrays below are indexed by: a restore into a machine whose table
	// diverged from it must fail rather than alias wrong lines.
	tab  []uint64
	st   *stats.Stats
	mem  mem.MemorySnapshot
	log  mem.LogSnapshot
	dram mem.DRAMSnapshot
	dir  coherence.Snapshot

	procs []procSnapshot

	// Opaque scheme state (SchemeSnapshotter), nil for stateless schemes.
	scheme any

	// gen increments on every capture into this snapshot object, so a
	// machine that remembers which (snapshot, gen) it last restored from
	// can take the copy-on-write delta path: the flat mem/log/directory
	// arrays copy back only their dirty pages instead of the whole
	// capture. Recapturing into a reused snapshot bumps gen and forces
	// the next restore back onto the full path.
	gen uint64
}

// procSnapshot is one processor's saved state.
type procSnapshot struct {
	l1, l2 cache.Snapshot
	deps   dep.Snapshot
	stream workload.State
	rng    uint64
	micro  microState
	tick   uint64

	stepScheduled bool

	curEpoch       uint64
	instrSinceCkpt uint64
	history        []CkptRec

	delayedQueue []uint64
	drainRush    bool

	faulty, tainted bool
	depStallSince   sim.Cycle
	restoreGen      uint64
}

// snapshotBlocker returns "" when the machine is at a snapshot-safe
// point, or a description of the first obstacle.
func (m *Machine) snapshotBlocker() string {
	if !m.Eng.AllTagged() {
		return "pending untagged event (protocol message, timer or injector in flight)"
	}
	for _, p := range m.Procs {
		switch {
		case p.paused:
			return fmt.Sprintf("proc %d paused", p.id)
		case p.pauseReq != nil:
			return fmt.Sprintf("proc %d has a pending pause request", p.id)
		case p.dormant:
			return fmt.Sprintf("proc %d dormant (I/O or barrier gate)", p.id)
		case p.draining || p.drainDone != nil:
			return fmt.Sprintf("proc %d draining delayed writebacks", p.id)
		case p.openPending:
			return fmt.Sprintf("proc %d opening its next epoch", p.id)
		case p.InCkpt:
			return fmt.Sprintf("proc %d engaged in a checkpoint/rollback", p.id)
		}
	}
	if sc, ok := m.Scheme.(SchemeSnapshotter); ok && !sc.SchemeQuiescent() {
		return "scheme not quiescent"
	}
	return ""
}

// SnapshotReady reports whether the machine is at a snapshot-safe
// (quiescent) point.
func (m *Machine) SnapshotReady() bool { return m.snapshotBlocker() == "" }

// SettleForSnapshot advances the machine one event at a time until it
// reaches a snapshot-safe point, giving up after maxCycles simulated
// cycles. No instruction target is in force while settling (committed
// instructions still count toward TotalInstructions). It reports
// whether a safe point was reached; either way the machine state is a
// deterministic function of its history, so callers that mix
// snapshot-restored and freshly-built machines stay bit-identical by
// settling both the same way.
func (m *Machine) SettleForSnapshot(maxCycles sim.Cycle) bool {
	m.targetInstr = 0
	deadline := m.Eng.Now() + maxCycles
	for m.snapshotBlocker() != "" {
		if m.Eng.Now() > deadline || !m.Eng.Step() {
			return false
		}
	}
	return true
}

// Snapshot captures the machine's complete mutable state into s,
// reusing s's storage across captures. The machine must be at a
// snapshot-safe point (SnapshotReady / SettleForSnapshot).
func (m *Machine) Snapshot(s *MachineSnapshot) error {
	if why := m.snapshotBlocker(); why != "" {
		return fmt.Errorf("machine: not snapshot-safe: %s", why)
	}
	now, seq, events, ok := m.Eng.Save(s.events)
	if !ok {
		return fmt.Errorf("machine: not snapshot-safe: untagged event")
	}
	s.cfg = m.Cfg
	s.now, s.seq, s.events = now, seq, events
	s.totalInstr, s.targetInstr = m.totalInstr, m.targetInstr
	if s.st == nil || s.st.NProcs != m.Cfg.NProcs {
		s.st = stats.New(m.Cfg.NProcs)
	}
	m.St.CopyInto(s.st)
	s.tab = append(s.tab[:0], m.Ctrl.Memory().Table().Addrs()...)
	if cap(s.procs) < len(m.Procs) {
		s.procs = make([]procSnapshot, len(m.Procs))
	} else {
		s.procs = s.procs[:len(m.Procs)]
	}
	// Per-proc state and the per-line ID ranges decompose into disjoint
	// tasks; the parallel executor fans them across cores (shardexec.go).
	m.saveParallel(s)
	if sc, ok := m.Scheme.(SchemeSnapshotter); ok {
		s.scheme = sc.SchemeSnapshot()
	} else {
		s.scheme = nil
	}
	s.valid = true
	s.gen++
	return nil
}

// Restore rewinds the machine to the state captured in s, in place and
// without reallocating steady-state structures. The target machine
// must have the same Config as the capture (it need not be the same
// machine object, nor ever have run: restoring a cold machine to a
// warmed image is the campaign engine's steady state). Any state the
// machine accumulated after the capture — including extra interned
// lines — is reset to what a fresh build would hold. The taint
// observer is cleared; a fault injector attached before the capture
// must be re-attached after.
//
// Restore is read-only with respect to s, so one snapshot safely backs
// any number of machines (Fork). When the machine's previous restore
// came from this same snapshot and generation, the flat mem/log/
// directory arrays take the copy-on-write delta path: only the pages
// the trial dirtied since that restore are copied back. Everything
// fixed-size per machine (engine queue, caches, Dep registers, stats,
// DRAM, streams) is always copied in full — its cost does not grow
// with the warm footprint.
func (m *Machine) Restore(s *MachineSnapshot) error {
	if !s.valid {
		return fmt.Errorf("machine: restore from an empty snapshot")
	}
	if !sameConfig(s.cfg, m.Cfg) {
		return fmt.Errorf("machine: snapshot config mismatch")
	}
	if err := m.Ctrl.Memory().Table().AdoptPrefix(s.tab); err != nil {
		return err
	}
	m.Eng.Load(s.now, s.seq, s.events, m.resolveTag)
	m.totalInstr, m.targetInstr = s.totalInstr, s.targetInstr
	s.st.CopyInto(m.St)
	// Per-proc state and the per-line ID ranges load as disjoint
	// parallel tasks (shardexec.go); the delta flag selects the
	// copy-on-write path.
	m.loadParallel(s, m.restoredFrom == s && m.restoredGen == s.gen)
	m.OnTaint = nil
	if sc, ok := m.Scheme.(SchemeSnapshotter); ok {
		sc.SchemeRestore(s.scheme)
	}
	m.restoredFrom, m.restoredGen = s, s.gen
	return nil
}

// Fork builds a new machine of the same shape as m — same Config, same
// workload profile, its own scheme instance — restored to the snapshot
// s. The parent machine and the snapshot are only read: Fork is safe to
// call concurrently with other forks of the same parent, and with the
// parent running trials of its own, which is how one warmed snapshot
// fans out to a worker pool without re-warming. Subsequent Restore(s)
// calls on the fork take the copy-on-write delta path.
func (m *Machine) Fork(s *MachineSnapshot, scheme Scheme) (*Machine, error) {
	n := New(m.Cfg, m.prof, scheme)
	if err := n.Restore(s); err != nil {
		return nil, err
	}
	return n, nil
}

// resolveTag re-binds a saved event to its closure.
func (m *Machine) resolveTag(t sim.Tag) func() {
	p := m.Procs[t.ID]
	switch t.Kind {
	case tagStep:
		return p.stepFn
	case tagDrain:
		return p.drainStepFn
	}
	panic(fmt.Sprintf("machine: unknown event tag kind %d", t.Kind))
}

// saveState captures the processor state into s.
func (p *Proc) saveState(s *procSnapshot) {
	p.l1.Save(&s.l1)
	p.l2.Save(&s.l2)
	p.deps.Save(&s.deps)
	s.stream = p.stream.Snapshot()
	s.rng = p.rng.State()
	s.micro = p.micro
	s.tick = p.tick
	s.stepScheduled = p.stepScheduled
	s.curEpoch, s.instrSinceCkpt = p.curEpoch, p.instrSinceCkpt
	s.history = s.history[:0]
	for _, r := range p.history {
		s.history = append(s.history, *r)
	}
	s.delayedQueue = append(s.delayedQueue[:0], p.delayedQueue...)
	s.drainRush = p.drainRush
	s.faulty, s.tainted = p.faulty, p.tainted
	s.depStallSince = p.depStallSince
	s.restoreGen = p.restoreGen
}

// loadState restores the processor from s. Pause/dormancy/epoch-open state
// is structurally clear at any snapshot point, so it is reset rather
// than stored.
func (p *Proc) loadState(s *procSnapshot) {
	p.l1.Load(&s.l1)
	p.l2.Load(&s.l2)
	p.deps.Load(&s.deps)
	p.stream.Restore(s.stream)
	p.rng.Restore(s.rng)
	p.micro = s.micro
	p.tick = s.tick
	p.stepScheduled = s.stepScheduled
	p.paused, p.pauseReq, p.dormant = false, nil, false
	p.curEpoch, p.instrSinceCkpt = s.curEpoch, s.instrSinceCkpt
	// Rebuild the checkpoint history from the record pool: every
	// closure that could reference the old records died with the
	// replaced event queue.
	for _, r := range p.history {
		p.freeRec(r)
	}
	p.history = p.history[:0]
	for i := range s.history {
		r := p.newRec()
		*r = s.history[i]
		p.history = append(p.history, r)
	}
	p.delayedQueue = append(p.delayedQueue[:0], s.delayedQueue...)
	p.draining, p.drainRush, p.drainDone = false, s.drainRush, nil
	p.faulty, p.tainted = s.faulty, s.tainted
	p.depStallSince = s.depStallSince
	p.restoreGen = s.restoreGen
	p.openPending = false
	p.InCkpt = false
}
