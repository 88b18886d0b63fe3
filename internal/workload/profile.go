package workload

import (
	"math"

	"repro/internal/sim"
)

// Profile parameterises one application's behaviour.
type Profile struct {
	Name string
	// Suite is "splash2", "parsec" or "server".
	Suite string

	// MemRatio is the fraction of instructions that are memory
	// operations; the rest are compute.
	MemRatio float64
	// WriteFrac is the fraction of memory operations that are stores.
	WriteFrac float64

	// PrivateLines, SharedLines and GlobalLines size the three data
	// regions (in cache lines). PrivateLines dominates the dirty
	// footprint per checkpoint interval.
	PrivateLines int
	SharedLines  int
	GlobalLines  int
	// SharedFrac is the fraction of memory ops that touch shared data;
	// of those, GlobalFrac go to the chip-global region and the rest to
	// the core's cluster region.
	SharedFrac float64
	GlobalFrac float64
	// GlobalWriteFrac is the store fraction for chip-global accesses.
	// Global data is mostly read-shared in the modelled applications
	// (lookup tables, scene data, configuration); leaving it at the
	// full WriteFrac would transitively couple every cluster into one
	// interaction set, which the paper's workloads do not show. A zero
	// value defaults to WriteFrac/5.
	GlobalWriteFrac float64
	// ClusterSize is the communication-locality knob: cores are grouped
	// into clusters of this many; cluster-shared accesses stay inside.
	// 0 means "all cores form one cluster".
	ClusterSize int
	// ZipfSkew skews shared-region line popularity Zipf-style (server
	// key-value workloads: a few hot keys take most accesses). 0 means
	// uniform — the historical behaviour of every paper profile; valid
	// skews are [0, 1). A flat scalar, like every Profile knob: streams
	// derive the skewed index per op from their RNG, so no dynamic
	// state is added and the persisted stream codec is untouched.
	ZipfSkew float64

	// BarrierPeriod is the number of instructions between global
	// barriers (0 = no barriers). The paper notes Ocean barriers every
	// ~50k instructions.
	BarrierPeriod int
	// LockRate is the per-op probability of entering a lock-protected
	// critical section; NLocks is the size of the lock pool; CSLen is
	// the number of ops inside a critical section. Locks are local to a
	// core's cluster (fine-grained locks protect neighbouring data);
	// GlobalLockFrac is the fraction of acquisitions that instead grab
	// a chip-global lock (central task queues — Raytrace, Radiosity,
	// Cholesky), which chains clusters together.
	LockRate       float64
	NLocks         int
	CSLen          int
	GlobalLockFrac float64

	// Imbalance skews compute-burst lengths across cores: core i runs
	// bursts scaled by 1 + Imbalance*i/(n-1). 0 = perfectly balanced.
	Imbalance float64

	// ColdFrac is the fraction of memory ops that stream through a
	// large, per-core, read-only cold region (grid sweeps, key scans,
	// input data): they always miss to main memory. This is the
	// steady demand-DRAM traffic that bursty checkpoint writebacks
	// interfere with (the IPCDelay of Fig 6.5). ColdLines sizes the
	// region (default 1<<18 lines).
	ColdFrac  float64
	ColdLines int

	// IOPeriod is the number of instructions between output-I/O
	// operations (0 = none). IOCore restricts the I/O to one core
	// (-1/0-default = every core); Fig 6.7 forces a single processor to
	// checkpoint at twice the checkpoint frequency this way.
	IOPeriod int
	IOCore   int
}

// clusterOf returns the cluster index of a core.
func (p *Profile) clusterOf(core, nprocs int) int {
	cs := p.ClusterSize
	if cs <= 0 || cs > nprocs {
		cs = nprocs
	}
	return core / cs
}

// burst returns the nominal compute burst length (in instructions) so
// that MemRatio holds on average: one memory op per burst.
func (p *Profile) burst() int {
	if p.MemRatio <= 0 {
		return 16
	}
	b := int((1-p.MemRatio)/p.MemRatio + 0.5)
	if b < 1 {
		b = 1
	}
	return b
}

// Stream generates the op sequence for one core. All state is in plain
// fields so the whole struct value is a snapshot.
type Stream struct {
	prof   *Profile
	core   int
	nprocs int

	// burst and scaledBurst cache Profile.burst() and its
	// imbalance-scaled value for this core: both are per-op constants,
	// and the float arithmetic showed up in the hot-path profile.
	burst       int
	scaledBurst int

	// The rest of the per-op constants, derived at NewStream too: the
	// core's cluster, the clamped region, lock-pool, critical-section
	// and cold-region sizes, and each profile fraction as the threshold
	// chance compares a draw against.
	cluster                                int
	privateLines, sharedLines, globalLines int
	nlocks, csLen                          int
	coldLines                              uint64
	pShared, pGlobal, pLock, pGlobalLock   uint64
	pCold, pWrite, pGlobalWrite            uint64

	rng sim.RNG

	// instrs counts instructions emitted (compute weight included).
	instrs uint64
	// sinceBarrier and sinceIO count instructions since the last
	// barrier/IO op.
	sinceBarrier uint64
	sinceIO      uint64
	// barrierID cycles through barrier episodes.
	barrierID uint64
	// cs tracks the current critical section: ops remaining and lock id.
	csRemaining int
	csLock      uint64
	// coldCursor walks the cold streaming region sequentially.
	coldCursor uint64
	// pendingMem alternates compute bursts with memory ops.
	pendingMem bool
}

// NewStream returns the op stream of core (of nprocs) under p.
func NewStream(p *Profile, core, nprocs int, seed uint64) *Stream {
	b := p.burst()
	// Imbalance: later cores run longer bursts.
	scale := 1.0
	if p.Imbalance > 0 && nprocs > 1 {
		scale = 1 + p.Imbalance*float64(core)/float64(nprocs-1)
	}
	scaled := int(float64(b)*scale + 0.5)
	gwf := p.GlobalWriteFrac
	if gwf == 0 {
		gwf = p.WriteFrac / 5
	}
	csLen := p.CSLen
	if csLen < 1 {
		csLen = 2
	}
	coldLines := p.ColdLines
	if coldLines <= 0 {
		coldLines = 1 << 18
	}
	return &Stream{
		prof:         p,
		core:         core,
		nprocs:       nprocs,
		burst:        b,
		scaledBurst:  scaled,
		cluster:      p.clusterOf(core, nprocs),
		privateLines: max(p.PrivateLines, 1),
		sharedLines:  max(p.SharedLines, 1),
		globalLines:  max(p.GlobalLines, 1),
		nlocks:       max(p.NLocks, 1),
		csLen:        csLen,
		coldLines:    uint64(coldLines),
		pShared:      threshold(p.SharedFrac),
		pGlobal:      threshold(p.GlobalFrac),
		pLock:        threshold(p.LockRate),
		pGlobalLock:  threshold(p.GlobalLockFrac),
		pCold:        threshold(p.ColdFrac),
		pWrite:       threshold(p.WriteFrac),
		pGlobalWrite: threshold(gwf),
		rng:          *sim.NewRNG(seed ^ (uint64(core)+1)*0x9e3779b97f4a7c15),
	}
}

// threshold converts a probability f into the integer t with
// x < t ⇔ float64(x)/2^53 < f for every 53-bit x, which is
// t = ⌈f·2^53⌉ clamped to [0, 2^53]: float64(x)/2^53 and f·2^53 are
// both exact, so the integer test draws and decides exactly as the
// RNG.Float64() < f comparison it replaces, without the conversion.
func threshold(f float64) uint64 {
	switch {
	case !(f > 0): // also NaN, which no draw is below
		return 0
	case f >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(f * (1 << 53)))
}

// csStore is the threshold of a critical-section op being a store.
var csStore = threshold(0.6)

// chance draws from the RNG and reports whether the draw falls below
// the threshold t, with the same RNG consumption as Float64.
func (s *Stream) chance(t uint64) bool { return s.rng.Next()>>11 < t }

// State is an opaque snapshot of a stream (its full value).
type State struct{ s Stream }

// Snapshot captures the stream for checkpointing.
func (s *Stream) Snapshot() State { return State{s: *s} }

// Restore rewinds the stream to a snapshot (rollback).
func (s *Stream) Restore(st State) { *s = st.s }

// StateImage is the persisted form of a stream State: the dynamic
// fields only. A stream's identity — which profile it reads, its core
// and processor count, and the derived burst constants — is not
// serialized; StateFromImage reconstructs it from the machine the image
// is decoded into, so a persisted snapshot can never smuggle a stale
// profile pointer into a live machine.
type StateImage struct {
	RNG          uint64
	Instrs       uint64
	SinceBarrier uint64
	SinceIO      uint64
	BarrierID    uint64
	CSRemaining  int
	CSLock       uint64
	ColdCursor   uint64
	PendingMem   bool
}

// Image extracts the serializable dynamic state of a captured State.
func (st State) Image() StateImage {
	return StateImage{
		RNG:          st.s.rng.State(),
		Instrs:       st.s.instrs,
		SinceBarrier: st.s.sinceBarrier,
		SinceIO:      st.s.sinceIO,
		BarrierID:    st.s.barrierID,
		CSRemaining:  st.s.csRemaining,
		CSLock:       st.s.csLock,
		ColdCursor:   st.s.coldCursor,
		PendingMem:   st.s.pendingMem,
	}
}

// StateFromImage rebuilds a State for core (of nprocs) streaming from
// p, overlaying the image's dynamic fields onto a freshly-derived
// identity (the seed passed to NewStream is irrelevant: the image's RNG
// state replaces it).
func StateFromImage(p *Profile, core, nprocs int, im StateImage) State {
	s := NewStream(p, core, nprocs, 1)
	s.rng.Restore(im.RNG)
	s.instrs = im.Instrs
	s.sinceBarrier = im.SinceBarrier
	s.sinceIO = im.SinceIO
	s.barrierID = im.BarrierID
	s.csRemaining = im.CSRemaining
	s.csLock = im.CSLock
	s.coldCursor = im.ColdCursor
	s.pendingMem = im.PendingMem
	return s.Snapshot()
}

// Instructions returns the instructions emitted so far.
func (s *Stream) Instructions() uint64 { return s.instrs }

// maxZipfSkew caps Profile.ZipfSkew below 1: the inverse-CDF exponent
// 1/(1-s) diverges at 1, and real measured key-popularity skews sit
// well under it (memcached traces cluster around 0.9).
const maxZipfSkew = 0.99

// skewIndex samples a line index in [0, n) under the profile's
// popularity skew: inverse-CDF sampling of the bounded power law,
// index = ⌊n·u^(1/(1-s))⌋ — a closed form needing no per-n tables and
// no stream state beyond the RNG draw. Skew 0 degrades to exactly the
// historical uniform draw (same RNG consumption), so profiles without
// the knob replay bit-identically.
func (s *Stream) skewIndex(n int) int {
	sk := s.prof.ZipfSkew
	if sk <= 0 {
		return s.rng.Intn(n)
	}
	if sk > maxZipfSkew {
		sk = maxZipfSkew
	}
	i := int(math.Pow(s.rng.Float64(), 1/(1-sk)) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// pickAddr chooses a target line for a memory op and reports whether it
// falls in the chip-global region.
func (s *Stream) pickAddr() (addr uint64, global bool) {
	if s.pShared > 0 && s.chance(s.pShared) {
		if s.pGlobal > 0 && s.chance(s.pGlobal) {
			return GlobalLine(s.rng.Intn(s.globalLines)), true
		}
		return ClusterLine(s.cluster, s.skewIndex(s.sharedLines)), false
	}
	return PrivateLine(s.core, s.rng.Intn(s.privateLines)), false
}

func (s *Stream) account(op Op) Op {
	s.instrs += op.Instructions()
	s.sinceBarrier += op.Instructions()
	s.sinceIO += op.Instructions()
	return op
}

// Next emits the next op. Streams are infinite; the machine decides
// when to stop.
func (s *Stream) Next() Op {
	p := s.prof

	// Inside a critical section: emit its body, then the unlock.
	if s.csRemaining > 0 {
		s.csRemaining--
		if s.csRemaining == 0 {
			return s.account(Op{Kind: Unlock, Arg: s.csLock})
		}
		// Critical sections touch shared data (that is their point) —
		// under a popularity skew the hot keys are exactly what the
		// bucket locks protect.
		addr := ClusterLine(s.cluster, s.skewIndex(s.sharedLines))
		k := Load
		if s.chance(csStore) {
			k = Store
		}
		return s.account(Op{Kind: k, Arg: addr})
	}

	// Barrier due?
	if p.BarrierPeriod > 0 && s.sinceBarrier >= uint64(p.BarrierPeriod) {
		s.sinceBarrier = 0
		s.barrierID++
		return s.account(Op{Kind: Barrier, Arg: s.barrierID % 4})
	}

	// Output I/O due?
	if p.IOPeriod > 0 && s.sinceIO >= uint64(p.IOPeriod) {
		s.sinceIO = 0
		if p.IOCore <= 0 || p.IOCore-1 == s.core {
			return s.account(Op{Kind: OutputIO})
		}
	}

	// Alternate compute bursts with memory/sync ops.
	if !s.pendingMem {
		s.pendingMem = true
		// Jitter to avoid lockstep.
		n := s.scaledBurst + s.rng.Intn(s.burst+1)
		if n < 1 {
			n = 1
		}
		return s.account(Op{Kind: Compute, Arg: uint64(n)})
	}
	s.pendingMem = false

	// Enter a critical section?
	if s.pLock > 0 && s.chance(s.pLock) {
		if s.pGlobalLock > 0 && s.chance(s.pGlobalLock) {
			// Chip-global lock ids live below the per-cluster spaces.
			s.csLock = uint64(s.rng.Intn(s.nlocks))
		} else {
			s.csLock = uint64(s.cluster+1)<<16 + uint64(s.rng.Intn(s.nlocks))
		}
		s.csRemaining = s.csLen + 1 // body ops + the unlock
		return s.account(Op{Kind: Lock, Arg: s.csLock})
	}

	// Cold streaming read?
	if s.pCold > 0 && s.chance(s.pCold) {
		s.coldCursor++
		return s.account(Op{Kind: Load, Arg: ColdLine(s.core, s.coldCursor%s.coldLines)})
	}

	// Plain memory op.
	addr, global := s.pickAddr()
	t := s.pWrite
	if global {
		t = s.pGlobalWrite
	}
	k := Load
	if s.chance(t) {
		k = Store
	}
	return s.account(Op{Kind: k, Arg: addr})
}
