package machine

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dep"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Persistent-snapshot codec: a MachineSnapshot serialized to JSON so a
// warmed machine image can outlive the process (internal/store keeps it
// content-addressed and self-verifying; campaign.TrialRunner loads it
// instead of re-running the warmup on cold start).
//
// There is one wire layout: memory words, directory columns and log
// keys are the snapshot's own flat arrays indexed by interned line ID,
// and Cfg omits Shards. A snapshot therefore encodes to the same bytes
// at every shard count and decodes into a machine of any shard count.
//
// The codec is deliberately shape-checked rather than trusting: decode
// refuses a payload whose format version, Config or scheme name does
// not match the machine it is decoded into, and a payload whose arrays
// do not fit that machine's geometry (checkShape), so a malformed
// payload is an error, never a panic in Restore. Stream identity
// (profile pointer, core number, derived burst constants) is never
// serialized — workload.StateFromImage re-derives it from the target
// machine, so a stale profile can not be smuggled in through a stored
// snapshot.

// SnapshotFormat is the persisted-snapshot schema version. Bump it on
// any change to the image structs below (or to the semantics of the
// fields they mirror); stored snapshots with another format are
// ignored, not migrated.
const SnapshotFormat = 3

// microImage mirrors microState.
type microImage struct {
	Stage uint8       `json:"stage"`
	Op    workload.Op `json:"op"`
	Acc   sim.Cycle   `json:"acc"`
	Gen   uint64      `json:"gen"`
	Count uint64      `json:"count"`
	Last  bool        `json:"last"`
}

func (mi microImage) state() microState {
	return microState{stage: microStage(mi.Stage), op: mi.Op, acc: mi.Acc, gen: mi.Gen, count: mi.Count, last: mi.Last}
}

func imageOfMicro(ms microState) microImage {
	return microImage{Stage: uint8(ms.stage), Op: ms.op, Acc: ms.acc, Gen: ms.gen, Count: ms.count, Last: ms.last}
}

// regImage mirrors Snapshot (a processor's register state at a
// checkpoint).
type regImage struct {
	Stream workload.StateImage `json:"stream"`
	Micro  microImage          `json:"micro"`
	RNG    uint64              `json:"rng"`
	Tick   uint64              `json:"tick"`
}

// ckptRecImage mirrors CkptRec.
type ckptRecImage struct {
	OpenedEpoch uint64    `json:"opened_epoch"`
	Snap        regImage  `json:"snap"`
	CompletedAt sim.Cycle `json:"completed_at"`
	Lines       uint64    `json:"lines"`
}

// procImage mirrors procSnapshot.
type procImage struct {
	L1             cache.Snapshot      `json:"l1"`
	L2             cache.Snapshot      `json:"l2"`
	Deps           dep.Snapshot        `json:"deps"`
	Stream         workload.StateImage `json:"stream"`
	RNG            uint64              `json:"rng"`
	Micro          microImage          `json:"micro"`
	Tick           uint64              `json:"tick"`
	StepScheduled  bool                `json:"step_scheduled"`
	CurEpoch       uint64              `json:"cur_epoch"`
	InstrSinceCkpt uint64              `json:"instr_since_ckpt"`
	History        []ckptRecImage      `json:"history"`
	DelayedQueue   []uint64            `json:"delayed_queue"`
	DrainRush      bool                `json:"drain_rush"`
	Faulty         bool                `json:"faulty"`
	Tainted        bool                `json:"tainted"`
	DepStallSince  sim.Cycle           `json:"dep_stall_since"`
	RestoreGen     uint64              `json:"restore_gen"`
}

// snapshotImage is the on-disk form of a MachineSnapshot.
type snapshotImage struct {
	Format int    `json:"format"`
	Cfg    Config `json:"cfg"`

	Now    sim.Cycle        `json:"now"`
	Seq    uint64           `json:"seq"`
	Events []sim.SavedEvent `json:"events"`

	TotalInstr  uint64 `json:"total_instr"`
	TargetInstr uint64 `json:"target_instr"`

	Tab  []uint64           `json:"tab"`
	St   *stats.Stats       `json:"st"`
	Mem  mem.MemorySnapshot `json:"mem"`
	Log  mem.LogImage       `json:"log"`
	DRAM mem.DRAMSnapshot   `json:"dram"`
	Dir  coherence.Snapshot `json:"dir"`

	Procs []procImage `json:"procs"`

	// SchemeName is the scheme the snapshot was captured under; decode
	// refuses a machine running a different one (warm state depends on
	// the scheme's behaviour during the warmup).
	SchemeName string `json:"scheme_name"`
	// Scheme is the SchemePersister-encoded scheme state; nil for a
	// stateless scheme.
	Scheme json.RawMessage `json:"scheme,omitempty"`
}

// encodeProcs builds the per-processor images of s.
func encodeProcs(s *MachineSnapshot) []procImage {
	procs := make([]procImage, len(s.procs))
	for i := range s.procs {
		p := &s.procs[i]
		pi := procImage{
			L1:             p.l1,
			L2:             p.l2,
			Deps:           p.deps,
			Stream:         p.stream.Image(),
			RNG:            p.rng,
			Micro:          imageOfMicro(p.micro),
			Tick:           p.tick,
			StepScheduled:  p.stepScheduled,
			CurEpoch:       p.curEpoch,
			InstrSinceCkpt: p.instrSinceCkpt,
			History:        make([]ckptRecImage, len(p.history)),
			DelayedQueue:   p.delayedQueue,
			DrainRush:      p.drainRush,
			Faulty:         p.faulty,
			Tainted:        p.tainted,
			DepStallSince:  p.depStallSince,
			RestoreGen:     p.restoreGen,
		}
		for j, r := range p.history {
			pi.History[j] = ckptRecImage{
				OpenedEpoch: r.OpenedEpoch,
				Snap: regImage{
					Stream: r.Snap.stream.Image(),
					Micro:  imageOfMicro(r.Snap.micro),
					RNG:    r.Snap.rng,
					Tick:   r.Snap.tick,
				},
				CompletedAt: r.CompletedAt,
				Lines:       r.Lines,
			}
		}
		procs[i] = pi
	}
	return procs
}

// encodeScheme serializes the opaque scheme state of s, if any.
func (m *Machine) encodeScheme(s *MachineSnapshot) (json.RawMessage, error) {
	if s.scheme == nil {
		return nil, nil
	}
	sp, ok := m.Scheme.(SchemePersister)
	if !ok {
		return nil, fmt.Errorf("machine: scheme %s holds snapshot state but does not implement SchemePersister", m.Scheme.Name())
	}
	return sp.EncodeSchemeState(s.scheme)
}

// EncodeSnapshot serializes s, which must have been captured from a
// machine of m's shape. The bytes do not depend on the shard count. A
// stateful scheme must implement SchemePersister; otherwise the
// snapshot is memory-only and encoding fails.
func (m *Machine) EncodeSnapshot(s *MachineSnapshot) ([]byte, error) {
	if !s.valid {
		return nil, fmt.Errorf("machine: encode of an empty snapshot")
	}
	if !sameConfig(s.cfg, m.Cfg) {
		return nil, fmt.Errorf("machine: encode snapshot config mismatch")
	}
	scheme, err := m.encodeScheme(s)
	if err != nil {
		return nil, err
	}
	im := snapshotImage{
		Format:      SnapshotFormat,
		Cfg:         s.cfg,
		Now:         s.now,
		Seq:         s.seq,
		Events:      s.events,
		TotalInstr:  s.totalInstr,
		TargetInstr: s.targetInstr,
		Tab:         s.tab,
		St:          s.st,
		Mem:         s.mem,
		Log:         s.log.Image(),
		DRAM:        s.dram,
		Dir:         s.dir,
		Procs:       encodeProcs(s),
		SchemeName:  m.Scheme.Name(),
		Scheme:      scheme,
	}
	return json.Marshal(&im)
}

// decodeProcs rebuilds the per-processor snapshot states from their
// images, re-deriving stream identity from m.
func (m *Machine) decodeProcs(images []procImage) []procSnapshot {
	procs := make([]procSnapshot, len(images))
	for i := range images {
		pi := &images[i]
		ps := procSnapshot{
			l1:             pi.L1,
			l2:             pi.L2,
			deps:           pi.Deps,
			stream:         workload.StateFromImage(m.prof, i, m.Cfg.NProcs, pi.Stream),
			rng:            pi.RNG,
			micro:          pi.Micro.state(),
			tick:           pi.Tick,
			stepScheduled:  pi.StepScheduled,
			curEpoch:       pi.CurEpoch,
			instrSinceCkpt: pi.InstrSinceCkpt,
			history:        make([]CkptRec, len(pi.History)),
			delayedQueue:   pi.DelayedQueue,
			drainRush:      pi.DrainRush,
			faulty:         pi.Faulty,
			tainted:        pi.Tainted,
			depStallSince:  pi.DepStallSince,
			restoreGen:     pi.RestoreGen,
		}
		for j := range pi.History {
			h := &pi.History[j]
			ps.history[j] = CkptRec{
				OpenedEpoch: h.OpenedEpoch,
				Snap: Snapshot{
					stream: workload.StateFromImage(m.prof, i, m.Cfg.NProcs, h.Snap.Stream),
					micro:  h.Snap.Micro.state(),
					rng:    h.Snap.RNG,
					tick:   h.Snap.Tick,
				},
				CompletedAt: h.CompletedAt,
				Lines:       h.Lines,
			}
		}
		procs[i] = ps
	}
	return procs
}

// decodeScheme deserializes the opaque scheme state. A stateful scheme
// requires it; a stateless one must not be handed any.
func (m *Machine) decodeScheme(raw json.RawMessage) (any, error) {
	if len(raw) == 0 {
		if _, ok := m.Scheme.(SchemeSnapshotter); ok {
			return nil, fmt.Errorf("machine: snapshot lacks the state of scheme %s", m.Scheme.Name())
		}
		return nil, nil
	}
	sp, ok := m.Scheme.(SchemePersister)
	if !ok {
		return nil, fmt.Errorf("machine: snapshot carries scheme state but scheme %s does not implement SchemePersister", m.Scheme.Name())
	}
	return sp.DecodeSchemeState(raw)
}

// checkShape validates every decoded array against m's geometry, so a
// malformed payload fails decode instead of tripping an invariant panic
// in Restore. ID-indexed arrays may be shorter than the line table
// (Restore reads a missing tail as untouched lines) but never longer.
func (m *Machine) checkShape(im *snapshotImage) error {
	n := m.Cfg.NProcs
	if im.SchemeName != m.Scheme.Name() {
		return fmt.Errorf("machine: snapshot captured under scheme %s, machine runs %s", im.SchemeName, m.Scheme.Name())
	}
	if len(im.Procs) != n {
		return fmt.Errorf("machine: snapshot has %d procs, want %d", len(im.Procs), n)
	}
	if im.St == nil || im.St.NProcs != n {
		return fmt.Errorf("machine: snapshot stats shape mismatch")
	}
	if err := im.St.CheckShape(); err != nil {
		return err
	}
	for _, ev := range im.Events {
		if (ev.Tag.Kind != tagStep && ev.Tag.Kind != tagDrain) || ev.Tag.ID < 0 || int(ev.Tag.ID) >= n {
			return fmt.Errorf("machine: snapshot event tag %+v names no processor task", ev.Tag)
		}
	}
	ids := len(im.Tab)
	if len(im.Mem.Words) > ids || len(im.Dir.Owner) > ids || len(im.Log.LastPID) > ids {
		return fmt.Errorf("machine: snapshot arrays (%d words, %d directory entries, %d log keys) exceed its %d-line table",
			len(im.Mem.Words), len(im.Dir.Owner), len(im.Log.LastPID), ids)
	}
	nonzero := 0
	for _, w := range im.Mem.Words {
		if w != (mem.Word{}) {
			nonzero++
		}
	}
	if nonzero != im.Mem.Nonzero {
		return fmt.Errorf("machine: snapshot memory holds %d non-zero lines, header says %d", nonzero, im.Mem.Nonzero)
	}
	if len(im.Log.PerPID) > n {
		return fmt.Errorf("machine: snapshot log has %d processor lists, want at most %d", len(im.Log.PerPID), n)
	}
	if err := m.Dir.CheckSnapshot(&im.Dir); err != nil {
		return err
	}
	if err := m.Ctrl.DRAM().CheckSnapshot(&im.DRAM); err != nil {
		return err
	}
	for i := range im.Procs {
		pi, p := &im.Procs[i], m.Procs[i]
		if err := p.l1.CheckSnapshot(&pi.L1); err != nil {
			return fmt.Errorf("machine: proc %d L1: %w", i, err)
		}
		if err := p.l2.CheckSnapshot(&pi.L2); err != nil {
			return fmt.Errorf("machine: proc %d L2: %w", i, err)
		}
		if err := p.deps.CheckSnapshot(&pi.Deps); err != nil {
			return fmt.Errorf("machine: proc %d: %w", i, err)
		}
	}
	return nil
}

// DecodeSnapshot deserializes a payload written by EncodeSnapshot into
// a fresh MachineSnapshot restorable into machines of m's shape, at any
// shard count. The payload's format version, Config (apart from Shards)
// and scheme name must match m, and its arrays must fit m's geometry.
func (m *Machine) DecodeSnapshot(data []byte) (*MachineSnapshot, error) {
	var im snapshotImage
	if err := json.Unmarshal(data, &im); err != nil {
		return nil, fmt.Errorf("machine: decode snapshot: %w", err)
	}
	if im.Format != SnapshotFormat {
		return nil, fmt.Errorf("machine: snapshot format %d, want %d", im.Format, SnapshotFormat)
	}
	if !sameConfig(im.Cfg, m.Cfg) {
		return nil, fmt.Errorf("machine: snapshot config mismatch")
	}
	if err := m.checkShape(&im); err != nil {
		return nil, err
	}
	s := &MachineSnapshot{
		cfg:         m.Cfg,
		now:         im.Now,
		seq:         im.Seq,
		events:      im.Events,
		totalInstr:  im.TotalInstr,
		targetInstr: im.TargetInstr,
		tab:         im.Tab,
		st:          im.St,
		mem:         im.Mem,
		dram:        im.DRAM,
		dir:         im.Dir,
		procs:       m.decodeProcs(im.Procs),
	}
	if err := s.log.FromImage(&im.Log); err != nil {
		return nil, err
	}
	scheme, err := m.decodeScheme(im.Scheme)
	if err != nil {
		return nil, err
	}
	s.scheme = scheme
	s.valid = true
	s.gen = 1
	return s, nil
}
