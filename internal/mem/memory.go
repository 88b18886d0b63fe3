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
// Lines live in one flat slice indexed by interned line ID; the table
// is shared with the undo log and the coherence directory so a hot-path
// transaction interns its address once.
type Memory struct {
	tab   *LineTable
	words []Word // indexed by interned line ID
	// nonzero counts non-zero lines.
	nonzero int

	// dirty tracks the pages of words mutated since the last load, for
	// the snapshot engine's copy-on-write restore. Growth in WriteID is
	// covered by the mark on the written ID; the appended filler words
	// are the zero value a load would reset a post-capture tail to
	// anyway.
	dirty cow.Dirty
}

// NewMemory returns an empty memory with its own line table.
func NewMemory() *Memory { return NewMemoryWith(NewLineTable()) }

// NewMemoryWith returns an empty memory indexing lines through tab.
func NewMemoryWith(tab *LineTable) *Memory { return &Memory{tab: tab} }

// Table returns the line-interning table backing this memory.
func (m *Memory) Table() *LineTable { return m.tab }

// ReadID returns the content of the line interned as id.
func (m *Memory) ReadID(id int32) Word {
	if int(id) >= len(m.words) {
		return Word{}
	}
	return m.words[id]
}

// WriteID stores w at the line interned as id.
func (m *Memory) WriteID(id int32, w Word) {
	for int(id) >= len(m.words) {
		m.words = append(m.words, Word{})
	}
	m.dirty.Mark(int(id))
	old := m.words[id]
	m.words[id] = w
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

// ForEach calls fn for every non-zero line in interned-ID order
// (callers that need address order must sort).
func (m *Memory) ForEach(fn func(addr uint64, w Word)) {
	for id, w := range m.words {
		if w != (Word{}) {
			fn(m.tab.Addr(int32(id)), w)
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
// order) keeps the answer independent of line-table history, so a
// machine restored from a snapshot reports the same line a fresh build
// would.
func (m *Memory) AnyPoison() (uint64, bool) {
	var min uint64
	found := false
	for id, w := range m.words {
		if !w.Poison {
			continue
		}
		if a := m.tab.Addr(int32(id)); !found || a < min {
			min, found = a, true
		}
	}
	return min, found
}

// MemorySnapshot is a saved memory image: the flat ID-indexed word
// slice and its non-zero count. Its exported fields are also the
// persisted form (machine.EncodeSnapshot writes them as they are).
// Save reuses its storage across captures.
type MemorySnapshot struct {
	Words   []Word
	Nonzero int
}

// Save copies the memory contents into s.
func (m *Memory) Save(s *MemorySnapshot) { m.SaveRange(s, 0, m.SaveBegin(s)) }

// SaveBegin sizes s for a save split into ID ranges and returns the
// number of IDs to copy. After it, SaveRange calls over disjoint ranges
// of [0, n) may run concurrently.
func (m *Memory) SaveBegin(s *MemorySnapshot) (n int) {
	n = len(m.words)
	if cap(s.Words) < n {
		s.Words = make([]Word, n)
	} else {
		s.Words = s.Words[:n]
	}
	s.Nonzero = m.nonzero
	return n
}

// SaveRange copies the words of IDs [lo, hi) into s.
func (m *Memory) SaveRange(s *MemorySnapshot, lo, hi int) {
	copy(s.Words[lo:hi], m.words[lo:hi])
}

// Load restores the memory from s by a full copy.
func (m *Memory) Load(s *MemorySnapshot) {
	m.LoadRange(s, 0, m.LoadBegin(s, false))
	m.LoadEnd()
}

// LoadBegin starts a restore from s split into ID ranges (the machine
// snapshot executor's parallel load) and returns the number of IDs the
// ranges cover. The memory adopts the captured length exactly: a longer
// live store shrinks (lines interned after the capture read as zero
// again, as in a fresh build, because WriteID growth appends zero
// words), a colder one grows.
//
// delta selects the copy-on-write path, which copies only the pages
// marked dirty since the last load. The caller guarantees the live
// contents were last loaded from this same capture (machine.Restore
// tracks the snapshot identity and generation). A live store shorter
// than the capture takes a full copy instead.
//
// After LoadBegin, LoadRange calls over disjoint ranges of [0, n) may
// run concurrently; LoadEnd finishes the restore.
func (m *Memory) LoadBegin(s *MemorySnapshot, delta bool) (n int) {
	n = len(s.Words)
	if !delta || len(m.words) < n {
		m.dirty.MarkAll()
		if cap(m.words) < n {
			m.words = make([]Word, n)
		}
	}
	m.words = m.words[:n]
	m.nonzero = s.Nonzero
	return n
}

// LoadRange restores the words of IDs [lo, hi) that LoadBegin's mode
// selects.
func (m *Memory) LoadRange(s *MemorySnapshot, lo, hi int) {
	m.dirty.Pages(lo, hi, func(a, b int) { copy(m.words[a:b], s.Words[a:b]) })
}

// LoadEnd marks the restored memory clean.
func (m *Memory) LoadEnd() { m.dirty.Clear() }
