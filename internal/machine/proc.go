package machine

import (
	"repro/internal/cache"
	"repro/internal/dep"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Synchronisation variables live in their own line-address region, far
// from workload data. Locks and barriers are ordinary shared-memory
// lines: their state rolls back with everything else.
const (
	syncBase    = uint64(1) << 56
	lockRegion  = syncBase
	barRegion   = syncBase + (1 << 40)
	barLockOff  = 0
	barCountOff = 1
	barFlagOff  = 2
	barLineSpan = 4
	lockBackoff = 3 // spin-poll multiples for contended locks
)

func lockLine(id uint64) uint64    { return lockRegion + id }
func barLockLine(id uint64) uint64 { return barRegion + id*barLineSpan + barLockOff }
func barCountLine(id uint64) uint64 {
	return barRegion + id*barLineSpan + barCountOff
}
func barFlagLine(id uint64) uint64 { return barRegion + id*barLineSpan + barFlagOff }

// microStage enumerates the steps of the lock/barrier micro-sequences.
type microStage uint8

const (
	msNone microStage = iota
	// Lock acquisition (test-and-test-and-set).
	msLockRead
	msLockTry
	// Barrier (Fig 4.2a): lock, read generation, read count, update,
	// (last arriver: zero count, gate, set flag), unlock, spin.
	msBarLockRead
	msBarLockTry
	msBarReadGen
	msBarReadCount
	msBarUpdate
	msBarZero
	msBarGate
	msBarSetFlag
	msBarUnlock
	msBarSpin
)

// microState is the in-flight state of a sync micro-sequence. It is
// part of a processor's snapshot: a checkpoint can land mid-barrier and
// rollback resumes exactly there.
type microState struct {
	stage microStage
	op    workload.Op
	// acc accumulates the latency charged when the sequence finishes.
	acc sim.Cycle
	// gen and count are the barrier values read so far; last marks the
	// final arriver.
	gen   uint64
	count uint64
	last  bool
}

// Snapshot is a processor's "register state" at a checkpoint: enough to
// re-execute from that point (§3.3.3 logs it with the checkpoint).
type Snapshot struct {
	stream workload.State
	micro  microState
	rng    uint64
	tick   uint64
}

// CkptRec describes one checkpoint of one processor.
type CkptRec struct {
	// OpenedEpoch is the checkpoint interval this checkpoint opened;
	// rolling back to this checkpoint undoes log entries with
	// epoch >= OpenedEpoch and restores Snap.
	OpenedEpoch uint64
	Snap        Snapshot
	// CompletedAt is the cycle at which the checkpoint (including all
	// writebacks and the closing sync) finished; pendingCycle while in
	// progress. A checkpoint is safe once CompletedAt+L <= now (§3.2).
	CompletedAt sim.Cycle
	// Lines counts the dirty lines written back for this checkpoint.
	Lines uint64
}

const pendingCycle = ^sim.Cycle(0)

// Proc is one tile: core, L1, L2 controller with Dep registers, and the
// per-processor slice of checkpoint state.
type Proc struct {
	m  *Machine
	id int

	l1, l2 *cache.Cache
	deps   *dep.Tracker
	stream *workload.Stream
	rng    sim.RNG

	micro microState
	tick  uint64 // per-proc op counter (store-value generator)

	// stepFn and drainStepFn are the step/drainStep methods bound once
	// at construction: a method value like p.step allocates a fresh
	// closure at every use, which made the per-op scheduling path the
	// simulator's second-largest allocation source.
	stepFn      func()
	drainStepFn func()

	// Execution control.
	stepScheduled bool
	paused        bool
	pauseReq      func()
	dormant       bool // waiting for a scheme callback (I/O, barrier gate)

	// Checkpoint state.
	curEpoch       uint64
	instrSinceCkpt uint64
	history        []*CkptRec
	// InCkpt is owned by the scheme: set while the processor is
	// engaged in a checkpoint (or rollback) protocol.
	InCkpt bool

	// Delayed-writeback drain state (§4.1).
	delayedQueue []uint64
	draining     bool
	drainRush    bool
	drainDone    func()

	// Fault state: faulty marks the core as corrupted by an injected
	// fault; tainted marks it as having consumed poisoned data.
	faulty, tainted bool

	depStallSince sim.Cycle

	// restoreGen increments on every rollback; long-lived callbacks
	// (barrier gates, I/O continuations, epoch-open retries) capture it
	// and go stale when it changes.
	restoreGen uint64
	// openPending guards against overlapping OpenNextEpoch calls.
	openPending bool

	// recFree pools dead CkptRec objects so the per-checkpoint record
	// allocation disappears once a machine is recycled across trials
	// (snapshot restore / Reset return every record here).
	recFree []*CkptRec
}

// Event tags (sim.Tag kinds) for the closures a processor keeps in the
// event queue at a quiescent point. Tagged events are pure functions of
// restorable processor state, which is what lets a machine snapshot
// save the pending queue as data (see snapshot.go).
const (
	tagStep uint8 = iota + 1
	tagDrain
)

// procRNGSeed derives processor id's private RNG seed from the machine
// seed (shared by newProc and Proc.reset so a Reset machine replays the
// same streams as a fresh build).
func procRNGSeed(machineSeed uint64, id int) uint64 {
	return machineSeed*0x5851f42d4c957f2d + uint64(id) + 1
}

func newProc(m *Machine, id int, prof *workload.Profile, arena *cache.Arena) *Proc {
	cfg := m.Cfg
	p := &Proc{
		m:      m,
		id:     id,
		l1:     cache.NewIn(arena, cfg.L1Size, cfg.L1Ways, cfg.LineBytes),
		l2:     cache.NewIn(arena, cfg.L2Size, cfg.L2Ways, cfg.LineBytes),
		deps:   dep.NewTracker(cfg.DepSets, cfg.WSIGBits, cfg.WSIGHashes),
		stream: workload.NewStream(prof, id, cfg.NProcs, cfg.Seed),
		rng:    *sim.NewRNG(procRNGSeed(cfg.Seed, id)),
	}
	p.stepFn = p.step
	p.drainStepFn = p.drainStep
	// The initial state is checkpoint 0: program start is axiomatically
	// safe; rolling back to it replays from the beginning.
	p.history = append(p.history, &CkptRec{
		OpenedEpoch: 0,
		Snap:        p.takeSnapshot(),
		CompletedAt: 0,
	})
	return p
}

// ID returns the processor id.
func (p *Proc) ID() int { return p.id }

// Deps exposes the Dep register tracker (schemes and tests).
func (p *Proc) Deps() *dep.Tracker { return p.deps }

// Epoch returns the current checkpoint interval number.
func (p *Proc) Epoch() uint64 { return p.curEpoch }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Faulty reports whether the core currently has an injected fault.
func (p *Proc) Faulty() bool { return p.faulty }

// Tainted reports whether the core has consumed poisoned data.
func (p *Proc) Tainted() bool { return p.tainted }

// InjectFault marks the core faulty: every value it writes from now on
// is poisoned, until a rollback clears it.
func (p *Proc) InjectFault() { p.faulty = true }

// InstrSinceCkpt returns the instructions executed since the last
// checkpoint (the barrier optimisation's "interested in checkpointing"
// test reads it, Fig 4.2d).
func (p *Proc) InstrSinceCkpt() uint64 { return p.instrSinceCkpt }

// --- step loop ---------------------------------------------------------

func (p *Proc) kick() { p.scheduleStep(0) }

func (p *Proc) scheduleStep(delay sim.Cycle) {
	if p.stepScheduled || p.paused || p.dormant {
		return
	}
	p.stepScheduled = true
	p.m.Eng.ScheduleTagged(delay, sim.Tag{Kind: tagStep, ID: int32(p.id)}, p.stepFn)
}

func (p *Proc) step() {
	p.stepScheduled = false
	if p.paused || p.dormant {
		return
	}
	if p.pauseReq != nil {
		p.enterPause()
		return
	}
	if p.micro.stage != msNone {
		p.microStep()
		return
	}
	op := p.stream.Next()
	p.tick++
	switch op.Kind {
	case workload.Compute:
		p.completeOp(op, sim.Cycle(op.Arg))
	case workload.Load:
		p.completeOp(op, p.load(op.Arg))
	case workload.Store:
		p.completeOp(op, p.store(op.Arg, p.storeValue()))
	case workload.Lock:
		p.micro = microState{stage: msLockRead, op: op}
		p.microStep()
	case workload.Unlock:
		lat := p.store(lockLine(op.Arg), 0)
		p.completeOp(op, lat)
	case workload.Barrier:
		p.micro = microState{stage: msBarLockRead, op: op}
		p.microStep()
	case workload.OutputIO:
		p.dormant = true
		gen := p.restoreGen
		p.m.Scheme.OutputIO(p, func() {
			if p.restoreGen != gen {
				return // rolled back meanwhile; the op re-executes
			}
			p.dormant = false
			p.completeOp(op, 1)
		})
	}
}

// completeOp commits op (instruction accounting, checkpoint interval
// check) and schedules the next step after lat cycles.
func (p *Proc) completeOp(op workload.Op, lat sim.Cycle) {
	n := op.Instructions()
	p.m.St.Instructions[p.id] += n
	p.instrSinceCkpt += n
	p.m.noteInstrs(n)
	if lat < 1 {
		lat = 1
	}
	p.scheduleStep(lat)
	if p.instrSinceCkpt >= p.m.Cfg.CkptInterval && !p.InCkpt {
		p.m.Scheme.IntervalExpired(p)
	}
}

// storeValue derives the (deterministic) value a store writes.
func (p *Proc) storeValue() uint64 {
	return uint64(p.id+1)<<48 ^ p.tick
}

// --- pausing ------------------------------------------------------------

// RequestPause asks the processor to stop at its next op/micro-op
// boundary and then call ack. If it is already paused, ack fires
// immediately. Spin loops count as boundaries, so a pause request is
// honoured promptly even inside a barrier wait.
func (p *Proc) RequestPause(ack func()) {
	if p.paused {
		ack()
		return
	}
	prev := p.pauseReq
	p.pauseReq = func() {
		if prev != nil {
			prev()
		}
		ack()
	}
	// A dormant proc (I/O wait, barrier gate) cannot reach a boundary;
	// it counts as paused for protocol purposes the moment it is asked.
	if p.dormant {
		req := p.pauseReq
		p.pauseReq = nil
		p.paused = true
		req()
	}
}

func (p *Proc) enterPause() {
	req := p.pauseReq
	p.pauseReq = nil
	p.paused = true
	req()
}

// Paused reports whether the processor is stopped.
func (p *Proc) Paused() bool { return p.paused }

// Resume restarts a paused processor.
func (p *Proc) Resume() {
	if !p.paused {
		return
	}
	p.paused = false
	if !p.dormant {
		p.kick()
	}
}

// --- synchronisation micro-sequences -----------------------------------

func (p *Proc) microStep() {
	ms := &p.micro
	switch ms.stage {
	case msLockRead, msBarLockRead:
		line := p.lockLineFor()
		w, lat := p.loadWord(line)
		ms.acc += lat
		if w.Val == 0 {
			ms.stage++
			p.scheduleStep(lat)
			return
		}
		// Contended: back off and re-read.
		p.scheduleStep(lat + p.backoff())
	case msLockTry, msBarLockTry:
		line := p.lockLineFor()
		old, lat := p.rmw(line, 1)
		ms.acc += lat
		if old.Val != 0 {
			ms.stage-- // lost the race: back to test
			p.scheduleStep(lat + p.backoff())
			return
		}
		if ms.stage == msLockTry {
			p.finishMicro(lat)
			return
		}
		ms.stage = msBarReadGen
		p.scheduleStep(lat)
	case msBarReadGen:
		w, lat := p.loadWord(barFlagLine(ms.op.Arg))
		ms.gen = w.Val
		ms.acc += lat
		ms.stage = msBarReadCount
		p.scheduleStep(lat)
	case msBarReadCount:
		w, lat := p.loadWord(barCountLine(ms.op.Arg))
		ms.count = w.Val
		ms.acc += lat
		ms.stage = msBarUpdate
		p.scheduleStep(lat)
	case msBarUpdate:
		lat := p.store(barCountLine(ms.op.Arg), ms.count+1)
		ms.acc += lat
		ms.last = ms.count+1 >= uint64(p.m.Cfg.NProcs)
		p.m.Scheme.BarrierUpdate(p, ms.last)
		if ms.last {
			ms.stage = msBarZero
		} else {
			ms.stage = msBarUnlock
		}
		p.scheduleStep(lat)
	case msBarZero:
		lat := p.store(barCountLine(ms.op.Arg), 0)
		ms.acc += lat
		ms.stage = msBarGate
		p.scheduleStep(lat)
	case msBarGate:
		// The barrier optimisation may hold the last arriver here until
		// the proactive checkpoint completes (§4.2.1).
		p.dormant = true
		gen := p.restoreGen
		p.m.Scheme.BarrierRelease(p, func() {
			if p.restoreGen != gen {
				return // rolled back meanwhile; the barrier re-executes
			}
			p.dormant = false
			p.micro.stage = msBarSetFlag
			if !p.paused {
				p.kick()
			}
		})
	case msBarSetFlag:
		lat := p.store(barFlagLine(ms.op.Arg), ms.gen+1)
		ms.acc += lat
		ms.stage = msBarUnlock
		p.scheduleStep(lat)
	case msBarUnlock:
		lat := p.store(barLockLine(ms.op.Arg), 0)
		ms.acc += lat
		if ms.last {
			p.finishMicro(lat)
			return
		}
		ms.stage = msBarSpin
		p.scheduleStep(lat)
	case msBarSpin:
		w, lat := p.loadWord(barFlagLine(ms.op.Arg))
		ms.acc += lat
		if w.Val != ms.gen {
			p.finishMicro(lat)
			return
		}
		p.scheduleStep(lat + p.m.Cfg.SpinPoll)
	default:
		panic("machine: bad micro stage")
	}
}

func (p *Proc) lockLineFor() uint64 {
	if p.micro.op.Kind == workload.Barrier {
		return barLockLine(p.micro.op.Arg)
	}
	return lockLine(p.micro.op.Arg)
}

func (p *Proc) backoff() sim.Cycle {
	return p.m.Cfg.SpinPoll*lockBackoff + sim.Cycle(p.rng.Intn(int(p.m.Cfg.SpinPoll)+1))
}

func (p *Proc) finishMicro(lat sim.Cycle) {
	op := p.micro.op
	p.micro = microState{}
	p.completeOp(op, lat)
}

// --- memory operations ---------------------------------------------------

// consume applies poison propagation on a loaded value.
func (p *Proc) consume(w mem.Word) {
	if w.Poison && !p.tainted {
		p.tainted = true
		if p.m.OnTaint != nil {
			p.m.OnTaint(p)
		}
	}
}

// wsigInsert records line in the current interval's write signature
// (and the exact shadow for false-positive measurement).
func (p *Proc) wsigInsert(line uint64) {
	p.deps.Current().WSIG.Insert(line)
}

// loadWord performs a load and returns the value (sync sequences need
// it); load is the plain wrapper.
func (p *Proc) loadWord(line uint64) (mem.Word, sim.Cycle) {
	st := p.m.St
	st.MemOps[p.id]++
	cfg := p.m.Cfg
	if p.l1.Lookup(line) != nil {
		st.L1Hits++
		l2 := p.l2.Peek(line) // inclusion: must be present
		if l2 == nil {
			panic("machine: L1 hit without L2 copy")
		}
		p.consume(l2.Data)
		return l2.Data, cfg.L1Hit
	}
	st.L1Misses++
	lat := cfg.L1Hit
	if l2 := p.l2.Lookup(line); l2 != nil {
		st.L2Hits++
		lat += cfg.L2Hit
		p.fillL1(line, l2.Data)
		p.consume(l2.Data)
		return l2.Data, lat
	}
	st.L2Misses++
	lat += cfg.L2Hit
	res := p.m.Dir.Read(p.id, line)
	lat += res.Latency
	l2 := p.insertL2(line)
	l2.State = res.State
	l2.Data = res.Data
	l2.Dirty = false
	l2.Delayed = false
	if res.State == cache.Exclusive {
		// RDX: the processor may write silently later, so the line
		// enters the signature now (§3.3.1 "written to or read
		// exclusively").
		p.wsigInsert(line)
	}
	p.fillL1(line, res.Data)
	p.consume(res.Data)
	return res.Data, lat
}

func (p *Proc) load(line uint64) sim.Cycle {
	_, lat := p.loadWord(line)
	return lat
}

// store writes val to line and returns the latency.
func (p *Proc) store(line uint64, val uint64) sim.Cycle {
	w := mem.Word{Val: val, Poison: p.faulty || p.tainted}
	_, lat := p.storeWord(line, w)
	return lat
}

// rmw atomically reads line and writes val (lock test-and-set). The
// returned word is the pre-write value.
func (p *Proc) rmw(line uint64, val uint64) (mem.Word, sim.Cycle) {
	w := mem.Word{Val: val, Poison: p.faulty || p.tainted}
	old, lat := p.storeWord(line, w)
	p.consume(old)
	return old, lat
}

func (p *Proc) storeWord(line uint64, w mem.Word) (mem.Word, sim.Cycle) {
	st := p.m.St
	st.MemOps[p.id]++
	cfg := p.m.Cfg
	lat := cfg.L1Hit + cfg.L2Hit // write-through L1: every store reaches L2
	var old mem.Word

	l2 := p.l2.Lookup(line)
	switch {
	case l2 != nil && l2.State == cache.Modified:
		st.L2Hits++
		old = l2.Data
		if l2.Delayed {
			// A write to a Delayed line forces its writeback first
			// (§4.1): the old value moves to the L2 writeback buffer
			// (the controller logs it) and the write completes after a
			// short fixed delay — it does not wait for the DRAM queue.
			p.m.Dir.WritebackRetain(p.id, line, l2.Data, l2.Epoch, false)
			lat += 4
			l2.Delayed = false
			l2.Epoch = p.curEpoch
			p.wsigInsert(line)
		} else if l2.Epoch != p.curEpoch {
			// Dirty line surviving into a new interval can only happen
			// transiently; re-tag conservatively.
			l2.Epoch = p.curEpoch
			p.wsigInsert(line)
		}
		l2.Data = w
	case l2 != nil && l2.State == cache.Exclusive:
		st.L2Hits++
		old = l2.Data
		// Silent E->M upgrade: no directory transaction, but the L2
		// controller records the write locally in the current WSIG
		// (LW-ID already points here from the RDX).
		l2.State = cache.Modified
		l2.Dirty = true
		l2.Epoch = p.curEpoch
		l2.Data = w
		p.wsigInsert(line)
	case l2 != nil: // Shared: upgrade
		st.L2Hits++
		res := p.m.Dir.Write(p.id, line)
		lat += res.Latency
		old = res.Data
		l2.State = cache.Modified
		l2.Dirty = true
		l2.Epoch = p.curEpoch
		l2.Data = w
		p.wsigInsert(line)
	default:
		st.L2Misses++
		res := p.m.Dir.Write(p.id, line)
		lat += res.Latency
		old = res.Data
		nl := p.insertL2(line)
		nl.State = cache.Modified
		nl.Dirty = true
		nl.Delayed = false
		nl.Epoch = p.curEpoch
		nl.Data = w
		p.wsigInsert(line)
	}
	p.fillL1(line, w)
	return old, lat
}

func (p *Proc) fillL1(line uint64, w mem.Word) {
	l, _, _ := p.l1.Insert(line)
	l.State = cache.Shared
	l.Data = w
}

func (p *Proc) insertL2(line uint64) *cache.Line {
	l, victim, ev := p.l2.Insert(line)
	if ev {
		p.evictVictim(victim)
	}
	return l
}

func (p *Proc) evictVictim(v cache.Line) {
	p.m.St.L2Evictions++
	p.l1.Invalidate(v.Addr) // inclusion
	if v.Dirty {
		// Delayed or not, a displaced dirty line goes to memory now;
		// the log entry carries the epoch in which it was dirtied.
		p.m.Dir.WritebackEvict(p.id, v.Addr, v.Data, v.Epoch)
		return
	}
	if v.State == cache.Shared {
		p.m.Dir.DropShared(p.id, v.Addr)
	}
	// Clean exclusive lines are dropped silently; the directory
	// discovers the stale ownership on the next request.
}
