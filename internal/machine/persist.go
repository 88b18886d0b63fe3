package machine

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
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
// The codec is deliberately shape-checked rather than trusting: decode
// refuses a payload whose format version, Config or scheme name does
// not match the machine it is decoded into. Stream identity (profile
// pointer, core number, derived burst constants) is never serialized —
// workload.StateFromImage re-derives it from the target machine, so a
// stale profile can not be smuggled in through a stored snapshot.
//
// Two wire formats coexist. A 1-shard machine writes format 1 — byte
// identical to the pre-sharding codec, so every snapshot in an existing
// store stays loadable and a fresh encode reproduces the committed
// bytes exactly (the flat Mem/Dir arrays and the Shards-less Cfg are
// reconstructed from the sharded in-memory form). A machine with more
// than one shard writes format 2: Cfg carries Shards and the memory and
// directory state serialize per shard, mirroring the in-memory
// partition so encode/decode can stay a per-shard operation.

// SnapshotFormat is the newest persisted-snapshot schema version. Bump
// it on any change to the image structs below (or to the semantics of
// the fields they mirror); stored snapshots with an unknown format are
// ignored, not migrated. Format 1 (unsharded machines) remains written
// and readable for bit-compatibility with pre-sharding stores.
const SnapshotFormat = 2

const snapshotFormatV1 = 1

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

// configV1 mirrors the pre-sharding Config field-for-field (no Shards),
// so a format-1 payload's "cfg" object keeps the historical keys.
type configV1 struct {
	NProcs         int
	L1Size, L1Ways int
	L2Size, L2Ways int
	LineBytes      int
	L1Hit, L2Hit   sim.Cycle
	MemChannels    int
	LogBanks       int
	CkptInterval   uint64
	DetectLatency  sim.Cycle
	DepSets        int
	WSIGBits       int
	WSIGHashes     int
	SpinPoll       sim.Cycle
	InterruptCost  sim.Cycle
	DWBGap         sim.Cycle
	Seed           uint64
}

func configV1Of(c Config) configV1 {
	return configV1{
		NProcs: c.NProcs,
		L1Size: c.L1Size, L1Ways: c.L1Ways,
		L2Size: c.L2Size, L2Ways: c.L2Ways,
		LineBytes: c.LineBytes,
		L1Hit:     c.L1Hit, L2Hit: c.L2Hit,
		MemChannels:   c.MemChannels,
		LogBanks:      c.LogBanks,
		CkptInterval:  c.CkptInterval,
		DetectLatency: c.DetectLatency,
		DepSets:       c.DepSets,
		WSIGBits:      c.WSIGBits,
		WSIGHashes:    c.WSIGHashes,
		SpinPoll:      c.SpinPoll,
		InterruptCost: c.InterruptCost,
		DWBGap:        c.DWBGap,
		Seed:          c.Seed,
	}
}

// memImageV1 mirrors the pre-sharding mem.MemorySnapshot wire form: a
// flat ID-indexed word array (untagged fields — the historical keys).
type memImageV1 struct {
	Words   []mem.Word
	Nonzero int
}

// dirImageV1 mirrors the pre-sharding coherence.Snapshot wire form.
type dirImageV1 struct {
	Owner   []int32
	LWID    []int32
	Sharers []uint64
}

// snapshotImageV1 is the format-1 (unsharded) on-disk form of a
// MachineSnapshot — byte-identical to the pre-sharding codec.
type snapshotImageV1 struct {
	Format int      `json:"format"`
	Cfg    configV1 `json:"cfg"`

	Now    sim.Cycle        `json:"now"`
	Seq    uint64           `json:"seq"`
	Events []sim.SavedEvent `json:"events"`

	TotalInstr  uint64 `json:"total_instr"`
	TargetInstr uint64 `json:"target_instr"`

	Tab  []uint64         `json:"tab"`
	St   *stats.Stats     `json:"st"`
	Mem  memImageV1       `json:"mem"`
	Log  mem.LogImage     `json:"log"`
	DRAM mem.DRAMSnapshot `json:"dram"`
	Dir  dirImageV1       `json:"dir"`

	Procs []procImage `json:"procs"`

	// SchemeName is the scheme the snapshot was captured under; decode
	// refuses a machine running a different one (warm state depends on
	// the scheme's behaviour during the warmup).
	SchemeName string `json:"scheme_name"`
	// Scheme is the SchemePersister-encoded scheme state; nil for a
	// stateless scheme.
	Scheme json.RawMessage `json:"scheme,omitempty"`
}

// memImageV2 is the per-shard wire form of a memory capture.
type memImageV2 struct {
	Shards  [][]mem.Word `json:"shards"`
	Nonzero int          `json:"nonzero"`
}

// dirImageV2 is the per-shard wire form of a directory capture.
type dirImageV2 struct {
	Owner   [][]int32  `json:"owner"`
	LWID    [][]int32  `json:"lwid"`
	Sharers [][]uint64 `json:"sharers"`
	WPP     int        `json:"wpp"`
}

// snapshotImageV2 is the format-2 (sharded) on-disk form: Cfg carries
// Shards, and the memory and directory state serialize per shard.
type snapshotImageV2 struct {
	Format int    `json:"format"`
	Cfg    Config `json:"cfg"`

	Now    sim.Cycle        `json:"now"`
	Seq    uint64           `json:"seq"`
	Events []sim.SavedEvent `json:"events"`

	TotalInstr  uint64 `json:"total_instr"`
	TargetInstr uint64 `json:"target_instr"`

	Tab  []uint64         `json:"tab"`
	St   *stats.Stats     `json:"st"`
	Mem  memImageV2       `json:"mem"`
	Log  mem.LogImage     `json:"log"`
	DRAM mem.DRAMSnapshot `json:"dram"`
	Dir  dirImageV2       `json:"dir"`

	Procs []procImage `json:"procs"`

	SchemeName string          `json:"scheme_name"`
	Scheme     json.RawMessage `json:"scheme,omitempty"`
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
// machine of m's shape. An unsharded machine writes format 1 (the
// pre-sharding codec, byte for byte); a sharded machine writes format
// 2. A stateful scheme must implement SchemePersister; otherwise the
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
	if s.cfg.shardCount() == 1 {
		owner, lwid, sharers := s.dir.FlatImage()
		im := snapshotImageV1{
			Format:      snapshotFormatV1,
			Cfg:         configV1Of(s.cfg),
			Now:         s.now,
			Seq:         s.seq,
			Events:      s.events,
			TotalInstr:  s.totalInstr,
			TargetInstr: s.targetInstr,
			Tab:         s.tab,
			St:          s.st,
			Mem:         memImageV1{Words: s.mem.FlatWords(mem.NewSharding(1)), Nonzero: s.mem.Nonzero()},
			Log:         s.log.Image(),
			DRAM:        s.dram,
			Dir:         dirImageV1{Owner: owner, LWID: lwid, Sharers: sharers},
			Procs:       encodeProcs(s),
			SchemeName:  m.Scheme.Name(),
			Scheme:      scheme,
		}
		return json.Marshal(&im)
	}
	nsh := s.mem.NumShards()
	mi := memImageV2{Shards: make([][]mem.Word, nsh), Nonzero: s.mem.Nonzero()}
	for i := 0; i < nsh; i++ {
		mi.Shards[i] = s.mem.ShardWords(i)
	}
	di := dirImageV2{
		Owner:   make([][]int32, s.dir.NumShards()),
		LWID:    make([][]int32, s.dir.NumShards()),
		Sharers: make([][]uint64, s.dir.NumShards()),
		WPP:     s.dir.WPP(),
	}
	for i := 0; i < s.dir.NumShards(); i++ {
		di.Owner[i], di.LWID[i], di.Sharers[i] = s.dir.ShardArrays(i)
	}
	im := snapshotImageV2{
		Format:      SnapshotFormat,
		Cfg:         s.cfg,
		Now:         s.now,
		Seq:         s.seq,
		Events:      s.events,
		TotalInstr:  s.totalInstr,
		TargetInstr: s.targetInstr,
		Tab:         s.tab,
		St:          s.st,
		Mem:         mi,
		Log:         s.log.Image(),
		DRAM:        s.dram,
		Dir:         di,
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

// decodeScheme deserializes the opaque scheme state, if any.
func (m *Machine) decodeScheme(raw json.RawMessage) (any, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	sp, ok := m.Scheme.(SchemePersister)
	if !ok {
		return nil, fmt.Errorf("machine: snapshot carries scheme state but scheme %s does not implement SchemePersister", m.Scheme.Name())
	}
	return sp.DecodeSchemeState(raw)
}

// checkShape validates the shape fields every format shares.
func (m *Machine) checkShape(schemeName string, nprocs int, st *stats.Stats) error {
	if schemeName != m.Scheme.Name() {
		return fmt.Errorf("machine: snapshot captured under scheme %s, machine runs %s", schemeName, m.Scheme.Name())
	}
	if nprocs != m.Cfg.NProcs {
		return fmt.Errorf("machine: snapshot has %d procs, want %d", nprocs, m.Cfg.NProcs)
	}
	if st == nil || st.NProcs != m.Cfg.NProcs {
		return fmt.Errorf("machine: snapshot stats shape mismatch")
	}
	return nil
}

// DecodeSnapshot deserializes a payload written by EncodeSnapshot into
// a fresh MachineSnapshot restorable into machines of m's shape. The
// payload's format version, Config and scheme name must match m: a
// format-1 payload only decodes into an unsharded machine, a format-2
// payload only into a machine with the same shard count.
func (m *Machine) DecodeSnapshot(data []byte) (*MachineSnapshot, error) {
	var probe struct {
		Format int `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("machine: decode snapshot: %w", err)
	}
	switch probe.Format {
	case snapshotFormatV1:
		return m.decodeSnapshotV1(data)
	case SnapshotFormat:
		return m.decodeSnapshotV2(data)
	}
	return nil, fmt.Errorf("machine: snapshot format %d, want %d or %d", probe.Format, snapshotFormatV1, SnapshotFormat)
}

func (m *Machine) decodeSnapshotV1(data []byte) (*MachineSnapshot, error) {
	var im snapshotImageV1
	if err := json.Unmarshal(data, &im); err != nil {
		return nil, fmt.Errorf("machine: decode snapshot: %w", err)
	}
	if m.Cfg.shardCount() != 1 {
		return nil, fmt.Errorf("machine: format-1 snapshot is unsharded, machine has %d shards", m.Cfg.shardCount())
	}
	if im.Cfg != configV1Of(m.Cfg) {
		return nil, fmt.Errorf("machine: snapshot config mismatch")
	}
	if err := m.checkShape(im.SchemeName, len(im.Procs), im.St); err != nil {
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
		dram:        im.DRAM,
		procs:       m.decodeProcs(im.Procs),
	}
	one := mem.NewSharding(1)
	s.mem.LoadFlatWords(one, im.Mem.Words, im.Mem.Nonzero)
	wpp := (m.Cfg.NProcs + 63) / 64
	if wpp < 1 {
		wpp = 1
	}
	if err := s.dir.LoadFlatImage(one, im.Dir.Owner, im.Dir.LWID, im.Dir.Sharers, wpp); err != nil {
		return nil, err
	}
	if err := s.log.FromImage(&im.Log, one); err != nil {
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

func (m *Machine) decodeSnapshotV2(data []byte) (*MachineSnapshot, error) {
	var im snapshotImageV2
	if err := json.Unmarshal(data, &im); err != nil {
		return nil, fmt.Errorf("machine: decode snapshot: %w", err)
	}
	if !sameConfig(im.Cfg, m.Cfg) {
		return nil, fmt.Errorf("machine: snapshot config mismatch")
	}
	if err := m.checkShape(im.SchemeName, len(im.Procs), im.St); err != nil {
		return nil, err
	}
	nsh := m.Cfg.shardCount()
	if len(im.Mem.Shards) != nsh {
		return nil, fmt.Errorf("machine: snapshot memory has %d shards, want %d", len(im.Mem.Shards), nsh)
	}
	if len(im.Dir.Owner) != nsh {
		return nil, fmt.Errorf("machine: snapshot directory has %d shards, want %d", len(im.Dir.Owner), nsh)
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
		dram:        im.DRAM,
		procs:       m.decodeProcs(im.Procs),
	}
	s.mem.SetShards(im.Mem.Shards, im.Mem.Nonzero)
	if err := s.dir.SetShards(im.Dir.Owner, im.Dir.LWID, im.Dir.Sharers, im.Dir.WPP); err != nil {
		return nil, err
	}
	if err := s.log.FromImage(&im.Log, mem.NewSharding(nsh)); err != nil {
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
