// Package mem models Rebound's off-chip safe memory (§3.2): the line
// store itself, a DDR2-like two-channel bandwidth model, the software
// undo log written by the memory controller (§3.3.3, following ReVive),
// and the memory controller that performs old-value logging on every
// writeback. Off-chip memory is assumed fault-free (ECC / NVM / raiding
// in the paper); the simulator therefore never corrupts it directly —
// corruption arrives only through writebacks of poisoned cache lines.
package mem

import "repro/internal/cow"

// Word is the content of one 32-byte cache line, abstracted to a single
// value plus a poison bit. The poison bit is the fault-injection shadow:
// a faulty core poisons the values it writes, and poison propagates to
// any consumer. It models corruption for verification; real hardware
// has no such bit.
type Word struct {
	Val    uint64
	Poison bool
}

// Memory is the line-addressed main memory. Absent lines read as zero.
// Lines live in per-shard slices indexed by interned line IDs through
// the machine's Sharding (shard = low ID bits, slot = remaining bits);
// the table is shared with the undo log and the coherence directory so
// a hot-path transaction interns its address once. A 1-shard memory
// is one flat ID-indexed array (shard 0, slot == id).
type Memory struct {
	tab   *LineTable
	sh    Sharding
	words [][]Word // per shard, indexed by slot
	// nonzero counts non-zero lines across all shards.
	nonzero int

	// dirty tracks, per shard, the slot pages mutated since the last
	// Load / LoadDelta, for the snapshot engine's copy-on-write restore.
	// Growth in WriteID is covered by the mark on the written slot; the
	// appended filler words are the zero value a load would reset a
	// post-capture tail to anyway.
	dirty []cow.Dirty
}

// NewMemory returns an empty unsharded memory with its own line table.
func NewMemory() *Memory { return NewMemoryWith(NewLineTable()) }

// NewMemoryWith returns an empty unsharded memory indexing lines
// through tab.
func NewMemoryWith(tab *LineTable) *Memory {
	return NewMemorySharded(tab, NewSharding(1))
}

// NewMemorySharded returns an empty memory indexing lines through tab
// with its word store partitioned by sh.
func NewMemorySharded(tab *LineTable, sh Sharding) *Memory {
	return &Memory{
		tab:   tab,
		sh:    sh,
		words: make([][]Word, sh.N()),
		dirty: make([]cow.Dirty, sh.N()),
	}
}

// Table returns the line-interning table backing this memory.
func (m *Memory) Table() *LineTable { return m.tab }

// Sharding returns the state-partition layout; the directory and log
// adopt it so the whole machine shares one shard map.
func (m *Memory) Sharding() Sharding { return m.sh }

// NumShards returns the shard count of the word store.
func (m *Memory) NumShards() int { return len(m.words) }

// ReadID returns the content of the line interned as id.
func (m *Memory) ReadID(id int32) Word {
	sh, sl := m.sh.Shard(id), m.sh.Slot(id)
	if sl >= len(m.words[sh]) {
		return Word{}
	}
	return m.words[sh][sl]
}

// WriteID stores w at the line interned as id.
func (m *Memory) WriteID(id int32, w Word) {
	sh, sl := m.sh.Shard(id), m.sh.Slot(id)
	for sl >= len(m.words[sh]) {
		m.words[sh] = append(m.words[sh], Word{})
	}
	m.dirty[sh].Mark(sl)
	old := m.words[sh][sl]
	m.words[sh][sl] = w
	if (old == Word{}) != (w == Word{}) {
		if w == (Word{}) {
			m.nonzero--
		} else {
			m.nonzero++
		}
	}
}

// Read returns the current content of line addr.
func (m *Memory) Read(addr uint64) Word {
	id, ok := m.tab.Lookup(addr)
	if !ok {
		return Word{}
	}
	return m.ReadID(id)
}

// Write stores w at line addr.
func (m *Memory) Write(addr uint64, w Word) {
	if w == (Word{}) {
		// A zero write into a never-touched line must not intern it.
		if id, ok := m.tab.Lookup(addr); ok {
			m.WriteID(id, w)
		}
		return
	}
	m.WriteID(m.tab.ID(addr), w)
}

// Len returns the number of non-zero lines.
func (m *Memory) Len() int { return m.nonzero }

// idLimit returns one past the highest interned ID any shard's word
// store covers, i.e. the length the flat array would have.
func (m *Memory) idLimit() int32 {
	limit := int32(0)
	for sh, ws := range m.words {
		if n := len(ws); n > 0 {
			if id := m.sh.ID(sh, n-1) + 1; id > limit {
				limit = id
			}
		}
	}
	return limit
}

// ForEach calls fn for every non-zero line in interned-ID order (the
// flat-array order, independent of the shard count; callers
// that need address order must sort).
func (m *Memory) ForEach(fn func(addr uint64, w Word)) {
	limit := m.idLimit()
	for id := int32(0); id < limit; id++ {
		sh, sl := m.sh.Shard(id), m.sh.Slot(id)
		if sl >= len(m.words[sh]) {
			continue
		}
		if w := m.words[sh][sl]; w != (Word{}) {
			fn(m.tab.Addr(id), w)
		}
	}
}

// Snapshot returns a deep copy of the memory contents, used by tests to
// compare pre-fault and post-recovery state.
func (m *Memory) Snapshot() map[uint64]Word {
	s := make(map[uint64]Word, m.nonzero)
	m.ForEach(func(a uint64, w Word) { s[a] = w })
	return s
}

// AnyPoison returns the smallest poisoned line address if any line is
// poisoned. Scanning for the minimum (rather than the first in interned
// order) keeps the answer independent of line-table history — and of
// the shard layout — so a machine restored from a snapshot reports the
// same line a fresh build would.
func (m *Memory) AnyPoison() (uint64, bool) {
	var min uint64
	found := false
	for sh, ws := range m.words {
		for sl, w := range ws {
			if !w.Poison {
				continue
			}
			if a := m.tab.Addr(m.sh.ID(sh, sl)); !found || a < min {
				min, found = a, true
			}
		}
	}
	return min, found
}

// MemorySnapshot is a saved memory image: one word slice per shard.
// Save reuses its storage across captures. FlatWords/LoadFlatWords
// convert to and from the flat ID-indexed layout the persistent codec
// writes at every shard count.
type MemorySnapshot struct {
	shards  [][]Word
	nonzero int
}

// Nonzero returns the captured non-zero line count.
func (s *MemorySnapshot) Nonzero() int { return s.nonzero }

// FlatWords returns the capture as one flat ID-indexed slice, gathered
// from the capture's own shard layout. For a single-shard capture this
// is the shard itself (zero-copy).
func (s *MemorySnapshot) FlatWords() []Word {
	if len(s.shards) <= 1 {
		if len(s.shards) == 0 {
			return nil
		}
		return s.shards[0]
	}
	sh := NewSharding(len(s.shards))
	limit := 0
	for i, ws := range s.shards {
		if n := len(ws); n > 0 {
			if id := int(sh.ID(i, n-1)) + 1; id > limit {
				limit = id
			}
		}
	}
	flat := make([]Word, limit)
	for i, ws := range s.shards {
		for sl, w := range ws {
			flat[sh.ID(i, sl)] = w
		}
	}
	return flat
}

// LoadFlatWords installs a flat ID-indexed capture, scattering it into
// sh's layout (persistent codec decode path; single-shard captures
// adopt the slice directly).
func (s *MemorySnapshot) LoadFlatWords(sh Sharding, flat []Word, nonzero int) {
	s.nonzero = nonzero
	if sh.N() == 1 {
		s.shards = [][]Word{flat}
		return
	}
	s.shards = make([][]Word, sh.N())
	for i := range s.shards {
		s.shards[i] = make([]Word, sh.SlotsFor(len(flat), i))
	}
	for id, w := range flat {
		s.shards[sh.Shard(int32(id))][sh.Slot(int32(id))] = w
	}
}

// prepare sizes s for n shards, keeping per-shard storage.
func (s *MemorySnapshot) prepare(n int) {
	if cap(s.shards) < n {
		old := s.shards
		s.shards = make([][]Word, n)
		copy(s.shards, old)
	} else {
		s.shards = s.shards[:n]
	}
}

// Save copies the memory contents into s.
func (m *Memory) Save(s *MemorySnapshot) {
	s.prepare(len(m.words))
	for i := range m.words {
		m.SaveShard(s, i)
	}
	s.nonzero = m.nonzero
}

// SaveShard copies one shard's words into s. The caller must have
// sized s with SavePrepare and must set the nonzero count itself;
// distinct shards may be saved concurrently (disjoint storage).
func (m *Memory) SaveShard(s *MemorySnapshot, i int) {
	ws := m.words[i]
	if cap(s.shards[i]) < len(ws) {
		s.shards[i] = make([]Word, len(ws))
	} else {
		s.shards[i] = s.shards[i][:len(ws)]
	}
	copy(s.shards[i], ws)
}

// SavePrepare sizes s for a per-shard parallel save (machine snapshot
// executor): after it returns, SaveShard calls for distinct shards are
// safe concurrently, and the caller finishes with SaveFinish.
func (m *Memory) SavePrepare(s *MemorySnapshot) { s.prepare(len(m.words)) }

// SaveFinish records the scalar state a per-shard save cannot.
func (m *Memory) SaveFinish(s *MemorySnapshot) { s.nonzero = m.nonzero }

// Load restores the memory from s, adopting the captured length
// exactly: a longer live shard shrinks (lines interned after the
// capture read as zero again, as in a fresh build — WriteID growth
// appends zero words), a colder one grows.
func (m *Memory) Load(s *MemorySnapshot) {
	for i := range m.words {
		m.LoadShard(s, i)
	}
	m.nonzero = s.nonzero
}

// LoadShard restores one shard from s (full copy). Distinct shards may
// be loaded concurrently; the caller finishes with LoadFinish.
func (m *Memory) LoadShard(s *MemorySnapshot, i int) {
	sw := s.shards[i]
	if cap(m.words[i]) < len(sw) {
		m.words[i] = make([]Word, len(sw))
	} else {
		m.words[i] = m.words[i][:len(sw)]
	}
	copy(m.words[i], sw)
	m.dirty[i].Clear()
}

// LoadDeltaShard restores one shard from s copying only the pages
// marked dirty since the last load. The caller guarantees the live
// contents were last loaded from this same capture (machine.Restore
// tracks the snapshot identity and generation); anything else must use
// LoadShard. A live shard shorter than the capture falls back to a
// full load.
//
// Truncating the post-capture tail without zeroing it is safe for the
// same reason Load's shrink is: WriteID growth appends explicit zero
// words, so a line re-interned past the captured length reads as zero
// until (re)written.
func (m *Memory) LoadDeltaShard(s *MemorySnapshot, i int) {
	sw := s.shards[i]
	n := len(sw)
	if m.dirty[i].All() || len(m.words[i]) < n {
		m.LoadShard(s, i)
		return
	}
	m.dirty[i].Pages(len(m.words[i]), func(lo, hi int) {
		if lo >= n {
			return // truncated below; growth re-zeroes
		}
		if hi > n {
			hi = n
		}
		copy(m.words[i][lo:hi], sw[lo:hi])
	})
	m.words[i] = m.words[i][:n]
	m.dirty[i].Clear()
}

// LoadFinish records the scalar state a per-shard load cannot.
func (m *Memory) LoadFinish(s *MemorySnapshot) { m.nonzero = s.nonzero }

// LoadDelta restores the memory from s via the per-shard delta path.
func (m *Memory) LoadDelta(s *MemorySnapshot) {
	for i := range m.words {
		m.LoadDeltaShard(s, i)
	}
	m.nonzero = s.nonzero
}
