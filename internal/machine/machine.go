// Machine assembly: the Rebound manycore substrate of Fig 3.1 (see
// doc.go for the package overview).
package machine

import (
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Config carries the architectural and checkpointing parameters
// (Fig 4.3a), scaled down for simulation (DefaultConfig).
type Config struct {
	NProcs int

	// Cache geometry.
	L1Size, L1Ways int
	L2Size, L2Ways int
	LineBytes      int
	L1Hit, L2Hit   sim.Cycle

	// Memory system.
	MemChannels int
	LogBanks    int

	// CkptInterval is the per-processor checkpoint interval in
	// instructions (the paper uses 4M; the scaled default is smaller).
	CkptInterval uint64
	// DetectLatency is L, the upper bound on fault-detection latency in
	// cycles (§3.2). A checkpoint completed more than L cycles ago is
	// safe. Must be smaller than the interval in cycles.
	DetectLatency sim.Cycle
	// DepSets is the number of Dep register sets per processor (§4.2).
	DepSets int
	// WSIGBits/WSIGHashes give the write-signature geometry (§3.3.2).
	WSIGBits, WSIGHashes int

	// SpinPoll is the repoll period of spin loops (barrier flags, busy
	// locks); InterruptCost is the cross-processor interrupt overhead
	// charged on protocol message delivery.
	SpinPoll      sim.Cycle
	InterruptCost sim.Cycle
	// DWBGap is the base pacing gap between background (delayed)
	// writebacks; the drain engine slows down further when the memory
	// channels are loaded (§4.1).
	DWBGap sim.Cycle

	// Seed drives all pseudo-randomness.
	Seed uint64

	// Shards is the number of contiguous line-ID ranges the snapshot
	// plane splits the memory and directory copies into, each its own
	// parallel task (shardexec.go); 0 and 1 both mean one range. It
	// changes how state is parallelized — never what the machine
	// computes or how it is stored: reports and snapshot bytes are
	// identical at every count. It is not persisted.
	Shards int `json:"-"`
}

// sameConfig reports whether two configs describe the same machine
// shape. Shards is not part of the shape: it only splits the snapshot
// plane's copies, so a capture restores at any range count.
func sameConfig(a, b Config) bool {
	a.Shards, b.Shards = 0, 0
	return a == b
}

// DefaultConfig returns the scaled Fig 4.3(a) configuration.
func DefaultConfig(nprocs int) Config {
	return Config{
		NProcs:        nprocs,
		L1Size:        16 * 1024,
		L1Ways:        4,
		L2Size:        256 * 1024,
		L2Ways:        8,
		LineBytes:     32,
		L1Hit:         2,
		L2Hit:         8,
		MemChannels:   2,
		LogBanks:      4,
		CkptInterval:  150_000,
		DetectLatency: 40_000,
		DepSets:       4,
		WSIGBits:      1024,
		WSIGHashes:    4,
		SpinPoll:      60,
		InterruptCost: 100,
		DWBGap:        300,
		Seed:          1,
	}
}

// Scheme is the hook surface a checkpointing scheme implements. The
// machine calls these at well-defined points; the scheme drives the
// processors back through their public primitives.
type Scheme interface {
	Name() string
	// Attach wires the scheme to its machine; called once from New.
	Attach(m *Machine)
	// IntervalExpired fires at an op boundary once p has executed
	// CkptInterval instructions since its last checkpoint.
	IntervalExpired(p *Proc)
	// OutputIO fires when p is about to perform output I/O. The scheme
	// must arrange the preceding checkpoint (§6.4) and call resume; a
	// scheme without I/O handling calls resume immediately.
	OutputIO(p *Proc, resume func())
	// BarrierUpdate fires while p is inside the barrier Update critical
	// section, right after incrementing the count (the insertion point
	// of Fig 4.2d). last tells whether p was the final arriver.
	BarrierUpdate(p *Proc, last bool)
	// BarrierRelease fires when the last arriver is about to write the
	// barrier flag; the scheme calls proceed when the flag may be set
	// (the barrier optimisation holds it until the proactive checkpoint
	// completes, §4.2.1).
	BarrierRelease(p *Proc, proceed func())
	// FaultDetected fires when a fault is detected at p; the scheme
	// must run the rollback protocol (§3.3.5).
	FaultDetected(p *Proc)
}

// Machine is one simulated chip plus its off-chip memory.
type Machine struct {
	Cfg    Config
	Eng    *sim.Engine
	St     *stats.Stats
	Topo   *topo.Topology
	Ctrl   *mem.Controller
	Dir    *coherence.Directory
	Procs  []*Proc
	Scheme Scheme

	// prof is the workload the processors stream from, retained so
	// Fork and snapshot decoding can rebuild the streams.
	prof *workload.Profile

	totalInstr  uint64
	targetInstr uint64

	// restoredFrom/restoredGen identify the (snapshot, generation) this
	// machine last restored from; a matching Restore takes the
	// copy-on-write delta path (snapshot.go).
	restoredFrom *MachineSnapshot
	restoredGen  uint64

	// OnTaint, if set, observes poison propagation (fault tests).
	OnTaint func(p *Proc)
}

// SchemeSnapshotter is the optional interface a stateful Scheme
// implements to participate in machine snapshots (snapshot.go). A
// scheme that does not implement it is treated as stateless: always
// quiescent, nothing to capture (machine.NullScheme).
type SchemeSnapshotter interface {
	// SchemeQuiescent reports whether no checkpoint/rollback operation
	// is in flight and no continuation closure is being held — i.e. the
	// scheme's entire behaviour-relevant state is plain data.
	SchemeQuiescent() bool
	// SchemeSnapshot returns an opaque copy of that data. The value is
	// retained by the machine snapshot and handed back verbatim.
	SchemeSnapshot() any
	// SchemeRestore rewinds the scheme to a state captured by
	// SchemeSnapshot on a scheme of the same type and machine shape.
	SchemeRestore(state any)
}

// SchemePersister is the optional extension of SchemeSnapshotter a
// stateful scheme implements so machine snapshots can be serialized
// (persist.go): it round-trips the opaque SchemeSnapshot value through
// JSON. Encode receives a value produced by SchemeSnapshot on a scheme
// of the same type; Decode must return a value SchemeRestore accepts. A
// stateful scheme without this interface still snapshots in memory but
// cannot be persisted to the store.
type SchemePersister interface {
	SchemeSnapshotter
	EncodeSchemeState(state any) ([]byte, error)
	DecodeSchemeState(data []byte) (any, error)
}

// New builds a machine running prof under scheme.
func New(cfg Config, prof *workload.Profile, scheme Scheme) *Machine {
	eng := sim.NewEngine()
	st := stats.New(cfg.NProcs)
	tp := topo.New(cfg.NProcs)
	tab := mem.NewLineTable()
	memory := mem.NewMemoryWith(tab)
	dram := mem.NewDRAM(eng, st, cfg.MemChannels)
	log := mem.NewLogWith(st, cfg.LogBanks, tab)
	ctrl := mem.NewController(eng, st, memory, dram, log)

	m := &Machine{Cfg: cfg, Eng: eng, St: st, Topo: tp, Ctrl: ctrl, Scheme: scheme, prof: prof}
	nodes := make([]coherence.Node, cfg.NProcs)
	m.Procs = make([]*Proc, cfg.NProcs)
	for i := 0; i < cfg.NProcs; i++ {
		p := newProc(m, i, prof)
		m.Procs[i] = p
		nodes[i] = (*procNode)(p)
	}
	m.Dir = coherence.New(tp, st, ctrl, nodes)
	scheme.Attach(m)
	return m
}

// Send delivers fn to processor `to` after the interconnect latency
// plus the cross-processor interrupt cost. Used by the distributed
// checkpoint/rollback protocols (which the paper implements with
// cross-processor interrupts and shared memory, §3.3.4).
func (m *Machine) Send(from, to int, fn func()) {
	m.St.ProtoMessages++
	m.Eng.Schedule(m.Topo.Latency(from, to)+m.Cfg.InterruptCost, fn)
}

// After schedules fn after delay cycles (a scheme-side timer).
func (m *Machine) After(delay sim.Cycle, fn func()) { m.Eng.Schedule(delay, fn) }

// Now returns the current cycle.
func (m *Machine) Now() sim.Cycle { return m.Eng.Now() }

func (m *Machine) noteInstrs(n uint64) {
	m.totalInstr += n
	if m.targetInstr != 0 && m.totalInstr >= m.targetInstr {
		m.Eng.Stop()
	}
}

// Run executes until the machine has committed totalInstr instructions
// across all processors (re-executed instructions after a rollback
// count again), then stops and records the end cycle. It returns the
// end cycle.
func (m *Machine) Run(totalInstr uint64) sim.Cycle {
	m.targetInstr = m.totalInstr + totalInstr
	for _, p := range m.Procs {
		p.kick()
	}
	end := m.Eng.Run(0)
	m.St.EndCycle = end
	return end
}

// RunCycles executes for at most n more cycles (used by fault tests to
// let recovery finish).
func (m *Machine) RunCycles(n sim.Cycle) sim.Cycle {
	m.targetInstr = 0
	for _, p := range m.Procs {
		p.kick()
	}
	end := m.Eng.Run(m.Eng.Now() + n)
	m.St.EndCycle = end
	return end
}

// TotalInstructions returns the instructions committed so far
// (including re-execution after rollbacks).
func (m *Machine) TotalInstructions() uint64 { return m.totalInstr }

// FinalizeStats folds per-processor counters (WSIG false-positive
// accounting) into the shared stats. Call once at the end of a run.
func (m *Machine) FinalizeStats() {
	m.St.WSIGTests, m.St.WSIGFalsePositives = 0, 0
	for _, p := range m.Procs {
		t, f := p.deps.FalsePositiveStats()
		m.St.WSIGTests += t
		m.St.WSIGFalsePositives += f
	}
}

// CheckCoherence validates directory/cache agreement (debug/tests).
func (m *Machine) CheckCoherence() {
	m.Dir.CheckInvariants(func(pid int, line uint64) (bool, bool) {
		l := m.Procs[pid].l2.Peek(line)
		if l == nil {
			return false, false
		}
		return true, l.Dirty
	})
}

// NullScheme is the no-checkpointing baseline ("none"): overheads of
// the real schemes are measured against it.
type NullScheme struct{}

// Name implements Scheme.
func (NullScheme) Name() string { return "none" }

// Attach implements Scheme.
func (NullScheme) Attach(*Machine) {}

// IntervalExpired implements Scheme (no-op).
func (NullScheme) IntervalExpired(*Proc) {}

// OutputIO implements Scheme: I/O proceeds without a checkpoint.
func (NullScheme) OutputIO(_ *Proc, resume func()) { resume() }

// BarrierUpdate implements Scheme (no-op).
func (NullScheme) BarrierUpdate(*Proc, bool) {}

// BarrierRelease implements Scheme: the flag is written immediately.
func (NullScheme) BarrierRelease(_ *Proc, proceed func()) { proceed() }

// FaultDetected implements Scheme: without a checkpointing scheme there
// is no recovery; the fault is ignored (tests assert poison survives).
func (NullScheme) FaultDetected(*Proc) {}
