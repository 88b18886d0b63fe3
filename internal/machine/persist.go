package machine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/dep"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Persistent-snapshot codec: a MachineSnapshot serialized to bytes so a
// warmed machine image can outlive the process (internal/store keeps it
// content-addressed and self-verifying; campaign.TrialRunner loads it
// instead of re-running the warmup on cold start).
//
// Format 6 is binary: an 8-byte magic, the format as a little-endian
// uint32, then sections in layout's order, each a little-endian uint32
// byte length and a body (internal/wire). In a body every number and
// flag is a varint (zig-zag if signed) and an array is its length and
// then its elements; only stats and the scheme state are JSON. The per-line arrays are indexed
// by interned line ID and the config omits Shards, so a snapshot has
// the same bytes at every shard count. A cache persists as its way
// count, LRU clock and non-zero ways as (index, line) pairs, and a log
// entry omits its PID, the index of its list; both are exact. The
// pending events are listed in firing order, ascending (at, seq), as
// sim.Engine.Save emits them (format 5 listed them in heap order).
//
// Decoding trusts nothing. Every length is checked against the target
// machine's shape where it has one, and against the bytes left, before
// anything is allocated for it; every section must be read exactly,
// and the payload to its end. The magic, format, Config and scheme name
// must match the target; processor IDs must name its processors; and
// checkShape checks what needs the whole snapshot, such as the
// pending events' firing order. A malformed payload is an error, never a panic in
// Restore or events fired out of order. Stream identity (profile
// pointer, core number, derived burst constants) is never serialized:
// workload.StateFromImage re-derives it from the target machine.

// SnapshotFormat is the persisted-snapshot schema version. Bump it on
// any change to the layout (or to the semantics of the fields it
// carries); stored snapshots with another format are ignored, not
// migrated.
const SnapshotFormat = 6

// snapshotMagic opens every payload; a JSON payload of an earlier
// format fails on it.
const snapshotMagic = "RBSNAPSH"

// pids codes processor IDs, each in [-1, nprocs): -1 is "no
// processor".
func pids(c *wire.Codec, what string, nprocs int, ps ...*int32) {
	for _, p := range ps {
		v := int(*p)
		if c.Int(&v); v < -1 || v >= nprocs {
			c.Fail("%s: no processor %d in a %d-processor machine", what, v, nprocs)
		} else if c.Dec {
			*p = int32(v)
		}
	}
}

func word(c *wire.Codec, w *mem.Word) { c.U(&w.Val); c.Flag(&w.Poison) }

// appendConfig writes every Config field but Shards as an 8-byte word,
// in declaration order. Decode compares these bytes with the target's
// own, so the check covers every field.
func appendConfig(b []byte, cfg Config) []byte {
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); v.Type().Field(i).Name != "Shards" {
			x := uint64(0)
			if f.CanInt() {
				x = uint64(f.Int())
			} else {
				x = f.Uint()
			}
			b = binary.LittleEndian.AppendUint64(b, x)
		}
	}
	return b
}

// regs codes register state: stream image, micro-sequence, RNG, tick.
// Read, the stream's identity is re-derived from m for processor core.
func (m *Machine) regs(c *wire.Codec, r *Snapshot, core int) {
	var im workload.StateImage
	if !c.Dec {
		im = r.stream.Image()
	}
	stage, kind := byte(r.micro.stage), byte(r.micro.op.Kind)
	c.U(&im.RNG, &im.Instrs, &im.SinceBarrier, &im.SinceIO, &im.BarrierID, &im.CSLock, &im.ColdCursor)
	c.Int(&im.CSRemaining)
	c.Flag(&im.PendingMem, &r.micro.last)
	c.Byte(&stage, &kind)
	c.U(&r.micro.op.Arg, &r.micro.acc, &r.micro.gen, &r.micro.count, &r.rng, &r.tick)
	if c.Dec {
		r.micro.stage, r.micro.op.Kind = microStage(stage), workload.Kind(kind)
		r.stream = workload.StateFromImage(m.prof, core, m.Cfg.NProcs, im)
	}
}

// regsBytes is the least size of regs' output.
const regsBytes = 18

// zeroLine reports whether l is the zero Line, field by field: the
// struct comparison is an out-of-line call, and a warm L2 is mostly
// empty ways.
func zeroLine(l *cache.Line) bool {
	return l.Addr|l.Epoch|l.Data.Val|l.LRU == 0 && l.State == 0 && !l.Dirty && !l.Delayed && !l.Data.Poison
}

// codeCache codes the image of a cache of ways ways: the way count, the LRU
// clock and the non-zero ways as (index, line) pairs in increasing way
// order. Read, the indices must increase and stay below ways, and the
// image expands to a full-length cache.Snapshot.
func codeCache(c *wire.Codec, s *cache.Snapshot, ways int) {
	w, n := uint64(len(s.Lines)), 0
	if c.U(&w); w != uint64(ways) {
		c.Fail("cache image holds %d ways, cache has %d", w, ways)
	}
	c.U(&s.LruTick)
	for i := range s.Lines {
		if !zeroLine(&s.Lines[i]) {
			n++
		}
	}
	if n = c.Count("cache ways", n, ways, 9); c.Dec && c.Err == nil {
		s.Lines = make([]cache.Line, ways)
	}
	for prev := -1; n > 0 && c.Err == nil; n-- {
		i := uint64(prev + 1)
		for !c.Dec && zeroLine(&s.Lines[i]) {
			i++
		}
		if c.U(&i); i >= uint64(ways) || int(i) <= prev {
			c.Fail("cache way index %d after %d, want increasing and below %d", i, prev, ways)
			break
		}
		prev = int(i)
		l := &s.Lines[i]
		c.U(&l.Addr)
		c.Byte((*byte)(&l.State))
		c.Flag(&l.Dirty, &l.Delayed, &l.Data.Poison)
		c.U(&l.Epoch, &l.Data.Val, &l.LRU)
	}
}

// codeDeps codes a Dep register file of at most capacity sets whose
// processor bitsets hold one to ⌈nprocs/64⌉ words, as live ones do.
func codeDeps(c *wire.Codec, s *dep.Snapshot, capacity, nprocs int) {
	c.Int(&s.NLive)
	wire.Slice(c, "Dep register sets", &s.Sets, capacity, 15)
	for i := range s.Sets {
		ss := &s.Sets[i]
		c.U(&ss.Epoch)
		for _, b := range [...]**bitset.Bitset{&ss.MyProducers, &ss.MyConsumers, &ss.PExact, &ss.CExact} {
			var w []uint64
			if !c.Dec {
				w = (*b).Words()
			}
			if c.U64s("bitset words", &w, max(1, (nprocs+63)/64)); len(w) == 0 {
				c.Fail("empty processor bitset")
			} else if c.Dec {
				*b = bitset.FromWords(w)
			}
		}
		c.U64s("signature words", &ss.WSIG.Bloom, math.MaxInt)
		c.U64s("signature slots", &ss.WSIG.Slots, math.MaxInt)
		c.Int(&ss.WSIG.N)
		c.Flag(&ss.WSIG.HasZero)
		c.U(&ss.WSIG.Tests, &ss.WSIG.FalsePositives)
	}
}

// codeLog codes the undo log of an nprocs machine with an ids-line table.
func codeLog(c *wire.Codec, im *mem.LogImage, nprocs, ids int) {
	if wire.Slice(c, "log processor lists", &im.PerPID, nprocs, 2); c.Dec {
		im.MinEpoch = make([]uint64, len(im.PerPID))
	}
	for pid := range im.PerPID {
		c.U(&im.MinEpoch[pid])
		es := &im.PerPID[pid]
		wire.Slice(c, "log entries", es, math.MaxInt, 6)
		for k := range *es {
			e := &(*es)[k]
			c.U(&e.Seq, &e.Epoch, &e.Line)
			word(c, &e.Old)
			if c.U(&e.At); c.Dec {
				e.PID = pid
			}
		}
	}
	if wire.Slice(c, "log keys", &im.LastPID, ids, 2); c.Dec {
		im.LastEpoch = make([]uint64, len(im.LastPID))
	}
	for id := range im.LastPID {
		pids(c, "log key", nprocs, &im.LastPID[id])
		c.U(&im.LastEpoch[id])
	}
	c.Int(&im.Total)
	c.U(&im.NextSeq, &im.SinceStub)
	c.Flag(&im.AlwaysLog)
}

// proc codes processor i's state: L1, L2, Dep registers, and registers
// with checkpoint state, each its own section.
func (m *Machine) proc(c *wire.Codec, i int, s *procSnapshot) {
	p := m.Procs[i]
	c.Section("L1", func() { codeCache(c, &s.l1, p.l1.Capacity()) })
	c.Section("L2", func() { codeCache(c, &s.l2, p.l2.Capacity()) })
	c.Section("Dep registers", func() { codeDeps(c, &s.deps, p.deps.Capacity(), m.Cfg.NProcs) })
	c.Section("processor state", func() {
		m.regs(c, &s.regs, i)
		c.U(&s.curEpoch, &s.instrSinceCkpt, &s.depStallSince, &s.restoreGen)
		c.Flag(&s.stepScheduled, &s.drainRush, &s.faulty, &s.tainted)
		wire.Slice(c, "checkpoint records", &s.history, math.MaxInt, regsBytes+3)
		for j := range s.history {
			h := &s.history[j]
			c.U(&h.OpenedEpoch)
			m.regs(c, &h.Snap, i)
			c.U(&h.CompletedAt, &h.Lines)
		}
		c.U64s("delayed writebacks", &s.delayedQueue, math.MaxInt)
	})
}

// layout codes s in payload order, with m as the target machine. The
// stats and scheme-state sections pass through st and scheme as JSON.
func (m *Machine) layout(c *wire.Codec, s *MachineSnapshot, st, scheme *[]byte) {
	n := m.Cfg.NProcs
	want := [2][]byte{appendConfig(nil, m.Cfg), []byte(m.Scheme.Name())}
	got := want
	c.Section("config", func() { c.Raw(&got[0]) })
	c.Section("scheme name", func() { c.Raw(&got[1]) })
	switch {
	case c.Err != nil:
	case !bytes.Equal(got[0], want[0]):
		c.Fail("config mismatch")
	case !bytes.Equal(got[1], want[1]):
		c.Fail("captured under scheme %s, machine runs %s", got[1], want[1])
	}
	c.Section("engine", func() {
		c.U(&s.now, &s.seq, &s.totalInstr, &s.targetInstr)
		wire.Slice(c, "pending events", &s.events, 2*n, 4)
		for i := range s.events {
			ev := &s.events[i]
			c.U(&ev.At, &ev.Seq)
			c.Byte(&ev.Tag.Kind)
			pids(c, "event tag", n, &ev.Tag.ID)
		}
	})
	c.Section("stats", func() { c.Raw(st) })
	c.Section("line table", func() { c.U64s("line table entries", &s.tab, math.MaxInt) })
	ids := len(s.tab)
	c.Section("memory", func() {
		c.Int(&s.mem.Nonzero)
		wire.Slice(c, "memory words", &s.mem.Words, ids, 2)
		for i := range s.mem.Words {
			word(c, &s.mem.Words[i])
		}
	})
	var log mem.LogImage
	if !c.Dec {
		log = s.log.Image()
	}
	if c.Section("log", func() { codeLog(c, &log, n, ids) }); c.Dec && c.Err == nil {
		if err := s.log.FromImage(&log); err != nil {
			c.Fail("%v", err)
		}
	}
	c.Section("DRAM", func() {
		c.U64s("DRAM read channels", &s.dram.ReadFree, math.MaxInt)
		c.U64s("DRAM write channels", &s.dram.WBFree, math.MaxInt)
	})
	c.Section("directory", func() {
		for _, col := range []*[]int32{&s.dir.Owner, &s.dir.LWID} {
			wire.Slice(c, "directory entries", col, ids, 1)
			for i := range *col {
				pids(c, "directory entry", n, &(*col)[i])
			}
		}
		c.U64s("directory sharer words", &s.dir.Sharers, math.MaxInt)
	})
	c.Section("procs", func() {
		if wire.Slice(c, "procs", &s.procs, n, 1); len(s.procs) != n && c.Err == nil {
			c.Fail("%d procs, want %d", len(s.procs), n)
		}
		for i := range s.procs {
			c.Section("proc", func() { m.proc(c, i, &s.procs[i]) })
		}
	})
	c.Section("scheme state", func() { c.Raw(scheme) })
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
	var scheme []byte
	if s.scheme != nil {
		sp, ok := m.Scheme.(SchemePersister)
		if !ok {
			return nil, fmt.Errorf("machine: scheme %s holds snapshot state but does not implement SchemePersister", m.Scheme.Name())
		}
		var err error
		if scheme, err = sp.EncodeSchemeState(s.scheme); err != nil {
			return nil, err
		}
	}
	st, err := json.Marshal(s.st)
	if err != nil {
		return nil, fmt.Errorf("machine: encode snapshot stats: %w", err)
	}
	c := &wire.Codec{B: binary.LittleEndian.AppendUint32([]byte(snapshotMagic), SnapshotFormat)}
	if m.layout(c, s, &st, &scheme); c.Err != nil {
		return nil, fmt.Errorf("machine: encode snapshot: %w", c.Err)
	}
	return c.B, nil
}

// decodeScheme deserializes the opaque scheme state. A stateful scheme
// requires it; a stateless one must not be handed any.
func (m *Machine) decodeScheme(raw []byte) (any, error) {
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

// checkShape validates what the layout's reads could not check alone,
// so a malformed payload fails decode instead of tripping an invariant
// panic in Restore: the stats shape, the pending events, the memory's
// non-zero count, the directory columns, the DRAM channels and the Dep
// register files.
func (m *Machine) checkShape(s *MachineSnapshot) error {
	n := m.Cfg.NProcs
	if s.st.NProcs != n {
		return fmt.Errorf("machine: snapshot stats shape mismatch")
	}
	if err := s.st.CheckShape(); err != nil {
		return err
	}
	if err := checkEvents(s, n); err != nil {
		return err
	}
	nonzero := 0
	for _, w := range s.mem.Words {
		if w != (mem.Word{}) {
			nonzero++
		}
	}
	if nonzero != s.mem.Nonzero {
		return fmt.Errorf("machine: snapshot memory holds %d non-zero lines, header says %d", nonzero, s.mem.Nonzero)
	}
	if err := m.Dir.CheckSnapshot(&s.dir); err != nil {
		return err
	}
	if err := m.Ctrl.DRAM().CheckSnapshot(&s.dram); err != nil {
		return err
	}
	for i := range s.procs {
		if err := m.Procs[i].deps.CheckSnapshot(&s.procs[i].deps); err != nil {
			return fmt.Errorf("machine: proc %d: %w", i, err)
		}
	}
	return nil
}

// checkEvents validates the pending-event list, which Engine.Load
// takes as given: each event names a processor task, and a processor
// has at most one pending step and one pending drain event; no event
// lies before now or carries a sequence number above the snapshot's
// counter or one already used; and the list is in firing order,
// strictly ascending (at, seq). A list that breaks any of these would
// decode and then fire events in the wrong order.
func checkEvents(s *MachineSnapshot, n int) error {
	pending := make([]uint8, n) // per processor, a bit per tag kind
	seqs := make(map[uint64]bool, len(s.events))
	for i, ev := range s.events {
		if (ev.Tag.Kind != tagStep && ev.Tag.Kind != tagDrain) || ev.Tag.ID < 0 || int(ev.Tag.ID) >= n {
			return fmt.Errorf("machine: snapshot event tag %+v names no processor task", ev.Tag)
		}
		bit := uint8(1) << ev.Tag.Kind
		if pending[ev.Tag.ID]&bit != 0 {
			return fmt.Errorf("machine: snapshot has two pending events tagged %+v", ev.Tag)
		}
		pending[ev.Tag.ID] |= bit
		if ev.At < s.now {
			return fmt.Errorf("machine: snapshot event at cycle %d is before now (%d)", ev.At, s.now)
		}
		if ev.Seq > s.seq || seqs[ev.Seq] {
			return fmt.Errorf("machine: snapshot event sequence %d is above the counter (%d) or repeated", ev.Seq, s.seq)
		}
		seqs[ev.Seq] = true
		if i > 0 {
			if p := s.events[i-1]; ev.At < p.At || ev.At == p.At && ev.Seq <= p.Seq {
				return fmt.Errorf("machine: snapshot events out of firing order at position %d", i)
			}
		}
	}
	return nil
}

// DecodeSnapshot deserializes a payload written by EncodeSnapshot into
// a fresh MachineSnapshot restorable into machines of m's shape, at any
// shard count. The payload's format version, Config (apart from Shards)
// and scheme name must match m, and its arrays must fit m's geometry.
func (m *Machine) DecodeSnapshot(data []byte) (*MachineSnapshot, error) {
	head := len(snapshotMagic) + 4
	if len(data) < head || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("machine: snapshot has a bad magic: not a format-%d payload", SnapshotFormat)
	}
	if f := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); f != SnapshotFormat {
		return nil, fmt.Errorf("machine: snapshot format %d, want %d", f, SnapshotFormat)
	}
	c := &wire.Codec{Dec: true, B: data[head:]}
	s := &MachineSnapshot{cfg: m.Cfg, st: new(stats.Stats)}
	var st, scheme []byte
	if m.layout(c, s, &st, &scheme); c.Err == nil && len(c.B) != 0 {
		c.Fail("%d trailing bytes", len(c.B))
	}
	if c.Err != nil {
		return nil, fmt.Errorf("machine: decode snapshot: %w", c.Err)
	}
	if err := json.Unmarshal(st, s.st); err != nil {
		return nil, fmt.Errorf("machine: snapshot stats: %w", err)
	}
	if err := m.checkShape(s); err != nil {
		return nil, err
	}
	var err error
	if s.scheme, err = m.decodeScheme(scheme); err != nil {
		return nil, err
	}
	s.valid, s.gen = true, 1
	return s, nil
}
