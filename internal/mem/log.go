package mem

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cow"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Entry is one undo record in the software log (§3.3.3): the processor
// that wrote the line, the checkpoint interval (epoch) whose data the
// writeback carried, the line address, and the line's old value read
// from memory by the controller before the write.
//
// Epoch tagging is how this implementation handles delayed writebacks:
// a background writeback of interval i−1 data interleaves in the log
// with displacements of interval i, and rollback must undo "everything
// from epoch e onwards for processor p", not "everything after a single
// stub position" (§4.1).
type Entry struct {
	Seq   uint64
	PID   int
	Epoch uint64
	Line  uint64
	Old   Word
	At    sim.Cycle
}

// EntryBytes is the log footprint of one entry: 32-byte line data plus
// address, PID and epoch metadata.
const EntryBytes = 44

// StubBytes is the footprint of a checkpoint-start stub (replicated per
// bank in the paper; we account one per bank).
const StubBytes = 16

// logKey identifies the (pid, epoch) of the most recent writeback of a
// line; pid < 0 marks an empty slot.
type logKey struct {
	pid   int32
	epoch uint64
}

// noEntries is the minEpoch sentinel for a processor with no live
// entries.
const noEntries = ^uint64(0)

// Log is the multi-banked in-memory undo log. The global order is the
// Seq stamp; entries are stored per processor (each list ascending in
// Seq) so the once-per-checkpoint truncation scans one processor's
// entries instead of the whole log — truncation used to be the largest
// single cost of the checkpoint path. The bank count only affects
// restore parallelism accounting.
type Log struct {
	st      *stats.Stats
	perPID  [][]Entry // ascending Seq within each processor
	total   int
	nextSeq uint64
	banks   int
	tab     *LineTable

	// lastKey implements ReVive's "log only the first writeback of a
	// line per checkpoint interval" optimisation: a writeback is not
	// logged again if the most recent log entry for the line came from
	// the same (pid, epoch). Indexed by interned line ID (a flat slice,
	// not a map: Append is on the writeback hot path). See log_test.go
	// for why any weaker condition would be unsound.
	lastKey []logKey

	// minEpoch[pid] is the smallest epoch among pid's live entries
	// (noEntries when it has none). Truncate uses it to skip the scan
	// entirely when no entry can be dropped.
	minEpoch []uint64

	// AlwaysLog disables the optimisation (ablation mode).
	AlwaysLog bool

	// highWater tracking: bytes appended since the last stub, and the
	// maximum such value (Table 6.1 row 2: checkpoint writebacks plus
	// unique displacements until the next checkpoint).
	sinceStub uint64

	// Dirty tracking for the snapshot engine's copy-on-write restore:
	// pidDirty[pid] marks a per-processor entry list (and with it its
	// epoch floor) whose contents changed since the last load, lkDirty
	// the mutated pages of lastKey. The scalar counters are copied
	// unconditionally.
	pidDirty []bool
	lkDirty  cow.Dirty

	// undo is Rollback's scratch list of undone entries, reused across
	// rollbacks.
	undo []Entry
}

// NewLog returns a log banked banks ways with its own line table.
func NewLog(st *stats.Stats, banks int) *Log {
	return NewLogWith(st, banks, NewLineTable())
}

// NewLogWith returns a log indexing lines through tab (shared with the
// machine's Memory and Directory).
func NewLogWith(st *stats.Stats, banks int, tab *LineTable) *Log {
	if banks < 1 {
		banks = 1
	}
	return &Log{st: st, banks: banks, tab: tab}
}

// adoptTable re-points the log at tab (the machine-wide shared table).
// A log that has already interned lines under another table cannot
// switch: its lastKey slots would alias wrong lines.
func (l *Log) adoptTable(tab *LineTable) {
	if l.tab == tab {
		return
	}
	if len(l.lastKey) > 0 || l.total > 0 {
		panic("mem: log cannot switch line tables after use")
	}
	l.tab = tab
}

// Banks returns the bank count.
func (l *Log) Banks() int { return l.banks }

// Len returns the number of live entries.
func (l *Log) Len() int { return l.total }

// Bytes returns the current log footprint.
func (l *Log) Bytes() uint64 { return uint64(l.total) * EntryBytes }

// keyAt returns the first-writeback key slot of id, growing lastKey to
// cover it.
func (l *Log) keyAt(id int32) *logKey {
	for int(id) >= len(l.lastKey) {
		l.lastKey = append(l.lastKey, logKey{pid: -1})
	}
	return &l.lastKey[id]
}

func (l *Log) growPID(pid int) {
	for pid >= len(l.perPID) {
		l.perPID = append(l.perPID, nil)
		l.minEpoch = append(l.minEpoch, noEntries)
		l.pidDirty = append(l.pidDirty, false)
	}
}

// rebuildMinEpochFor recomputes one processor's epoch floor after its
// entries were removed (rollback, truncation) — rare paths.
func (l *Log) rebuildMinEpochFor(pid int) {
	min := noEntries
	for i := range l.perPID[pid] {
		if e := l.perPID[pid][i].Epoch; e < min {
			min = e
		}
	}
	l.minEpoch[pid] = min
}

// Append records an undo entry for line, unless the first-writeback
// optimisation allows skipping it. It reports whether an entry was
// actually appended (and hence whether the memory controller paid the
// extra old-value read and log write).
func (l *Log) Append(pid int, epoch uint64, line uint64, old Word, at sim.Cycle) bool {
	return l.AppendID(pid, epoch, l.tab.ID(line), line, old, at)
}

// AppendID is Append for a caller that already interned line as id.
func (l *Log) AppendID(pid int, epoch uint64, id int32, line uint64, old Word, at sim.Cycle) bool {
	k := l.keyAt(id)
	if !l.AlwaysLog && k.pid == int32(pid) && k.epoch == epoch {
		return false
	}
	l.nextSeq++
	l.growPID(pid)
	l.perPID[pid] = append(l.perPID[pid], Entry{
		Seq: l.nextSeq, PID: pid, Epoch: epoch, Line: line, Old: old, At: at,
	})
	l.total++
	l.pidDirty[pid] = true
	l.lkDirty.Mark(int(id))
	k.pid, k.epoch = int32(pid), epoch
	if epoch < l.minEpoch[pid] {
		l.minEpoch[pid] = epoch
	}
	l.st.LogEntries++
	l.st.LogBytes += EntryBytes
	l.sinceStub += EntryBytes
	if l.sinceStub > l.st.LogHighWaterBytes {
		l.st.LogHighWaterBytes = l.sinceStub
	}
	return true
}

// Stub marks the start of a checkpoint for a set of processors. In the
// paper the stub is inserted in every bank; here it resets the
// per-interval high-water accounting and is counted for footprint.
func (l *Log) Stub(at sim.Cycle) {
	l.st.LogStubs++
	l.st.LogBytes += StubBytes * uint64(l.banks)
	l.sinceStub = 0
}

// Rollback undoes, in reverse global (Seq) order, every entry whose
// processor is in target and whose epoch is >= target[pid], invoking
// restore for each and removing the entries from the log. It returns
// the number of entries restored.
//
// Restoring in reverse order across all processors in the set is what
// makes interleaved writes by multiple rolled-back processors unwind
// correctly: a WW dependence puts both writers in the rollback set
// (§3.3.5), and the older value must be restored last.
func (l *Log) Rollback(target map[int]uint64, restore func(line uint64, old Word)) uint64 {
	// Collect the undone entries of every target processor, compacting
	// each per-processor list in place.
	l.undo = l.undo[:0]
	for pid, ep := range target {
		if pid < 0 || pid >= len(l.perPID) {
			continue
		}
		keep := l.perPID[pid][:0]
		for _, e := range l.perPID[pid] {
			if e.Epoch >= ep {
				l.undo = append(l.undo, e)
			} else {
				keep = append(keep, e)
			}
		}
		if len(keep) != len(l.perPID[pid]) {
			l.perPID[pid] = keep
			l.pidDirty[pid] = true
			l.rebuildMinEpochFor(pid)
		}
	}
	// Reverse global order across the whole set.
	slices.SortFunc(l.undo, func(a, b Entry) int { return cmp.Compare(b.Seq, a.Seq) })
	for _, e := range l.undo {
		restore(e.Line, e.Old)
		// Invalidate the first-writeback key so a re-executed interval
		// logs afresh.
		id := l.tab.ID(e.Line)
		if k := l.keyAt(id); k.pid == int32(e.PID) && k.epoch == e.Epoch {
			k.pid = -1
			l.lkDirty.Mark(int(id))
		}
	}
	l.total -= len(l.undo)
	return uint64(len(l.undo))
}

// Truncate discards entries older than the given per-processor safe
// epochs: an entry (pid, epoch) is dead once epoch < safe[pid], i.e.
// once no future rollback can target it. Processors absent from safe
// keep all their entries. It returns the number discarded.
func (l *Log) Truncate(safe map[int]uint64) int {
	dropped := 0
	for pid, s := range safe {
		if pid < 0 || pid >= len(l.perPID) || l.minEpoch[pid] >= s {
			continue // nothing droppable: the common per-checkpoint case
		}
		keep := l.perPID[pid][:0]
		for _, e := range l.perPID[pid] {
			if e.Epoch < s {
				dropped++
				continue
			}
			keep = append(keep, e)
		}
		l.perPID[pid] = keep
		l.pidDirty[pid] = true
		l.rebuildMinEpochFor(pid)
	}
	l.total -= dropped
	return dropped
}

// LogSnapshot is a saved log image: per-processor entry lists, the
// ID-indexed first-writeback keys and the epoch floors. Save reuses its
// storage.
type LogSnapshot struct {
	perPID    [][]Entry
	lastKey   []logKey
	minEpoch  []uint64
	total     int
	nextSeq   uint64
	sinceStub uint64
	alwaysLog bool
}

// Save copies the log state into s.
func (l *Log) Save(s *LogSnapshot) {
	if cap(s.perPID) < len(l.perPID) {
		old := s.perPID
		s.perPID = make([][]Entry, len(l.perPID))
		copy(s.perPID, old)
	} else {
		s.perPID = s.perPID[:len(l.perPID)]
	}
	for pid := range l.perPID {
		s.perPID[pid] = append(s.perPID[pid][:0], l.perPID[pid]...)
	}
	s.lastKey = append(s.lastKey[:0], l.lastKey...)
	s.minEpoch = append(s.minEpoch[:0], l.minEpoch...)
	s.total, s.nextSeq, s.sinceStub = l.total, l.nextSeq, l.sinceStub
	s.alwaysLog = l.AlwaysLog
}

// Load restores the log from s. Per-processor lists and first-writeback
// keys that grew past the capture are reset to their untouched defaults
// (empty list / no-entry key), matching what a fresh build would hold;
// a colder log (restore into a machine that never ran) grows to the
// captured shape.
func (l *Log) Load(s *LogSnapshot) {
	l.growPID(len(s.perPID) - 1)
	for pid := range l.perPID {
		l.loadPID(s, pid)
	}
	l.lkDirty.MarkAll()
	l.finishLoad(s)
}

// LoadDelta restores the log from s touching only the state mutated
// since the last load: the per-processor lists (with their epoch
// floors) flagged dirty, the mutated pages of the first-writeback keys,
// and the scalar counters. The caller guarantees the live state was
// last loaded from this same capture; anything else must use Load.
func (l *Log) LoadDelta(s *LogSnapshot) {
	if len(l.perPID) < len(s.perPID) {
		l.Load(s)
		return
	}
	for pid := range l.perPID {
		if l.pidDirty[pid] {
			l.loadPID(s, pid)
		}
	}
	l.finishLoad(s)
}

// loadPID restores one processor's entry list and epoch floor from s.
func (l *Log) loadPID(s *LogSnapshot, pid int) {
	if pid < len(s.perPID) {
		l.perPID[pid] = append(l.perPID[pid][:0], s.perPID[pid]...)
		l.minEpoch[pid] = s.minEpoch[pid]
	} else {
		l.perPID[pid] = l.perPID[pid][:0]
		l.minEpoch[pid] = noEntries
	}
}

// finishLoad restores the first-writeback key pages lkDirty selects
// (a live array shorter than the capture grows and takes a full copy;
// keys past the capture revert to the no-entry default) and the
// scalar state, and marks the log clean.
func (l *Log) finishLoad(s *LogSnapshot) {
	n := len(s.lastKey)
	if len(l.lastKey) < n {
		l.lkDirty.MarkAll()
		for len(l.lastKey) < n {
			l.lastKey = append(l.lastKey, logKey{pid: -1})
		}
	}
	l.lkDirty.Pages(0, len(l.lastKey), func(lo, hi int) {
		copy(l.lastKey[lo:hi], s.lastKey[min(lo, n):min(hi, n)])
		for j := max(lo, n); j < hi; j++ {
			l.lastKey[j] = logKey{pid: -1}
		}
	})
	l.total, l.nextSeq, l.sinceStub = s.total, s.nextSeq, s.sinceStub
	// AlwaysLog is part of the captured behaviour: a snapshot of a
	// log-ablation machine restored into a default-built one (the
	// cross-machine restore path) must keep logging every writeback.
	l.AlwaysLog = s.alwaysLog
	clear(l.pidDirty)
	l.lkDirty.Clear()
}

// LogImage is the exported form of a LogSnapshot, used by the
// persistent-snapshot codec (machine.EncodeSnapshot). The lastKey slots
// are split into parallel PID/epoch arrays, indexed by interned line
// ID, so the unexported logKey type never leaks into the codec.
type LogImage struct {
	PerPID    [][]Entry
	LastPID   []int32
	LastEpoch []uint64
	MinEpoch  []uint64
	Total     int
	NextSeq   uint64
	SinceStub uint64
	AlwaysLog bool
}

// Image returns the snapshot's exported form. Its entry lists and
// epoch floors share storage with s and must not be modified.
func (s *LogSnapshot) Image() LogImage {
	im := LogImage{
		PerPID:    s.perPID,
		LastPID:   make([]int32, len(s.lastKey)),
		LastEpoch: make([]uint64, len(s.lastKey)),
		MinEpoch:  s.minEpoch,
		Total:     s.total,
		NextSeq:   s.nextSeq,
		SinceStub: s.sinceStub,
		AlwaysLog: s.alwaysLog,
	}
	for id, k := range s.lastKey {
		im.LastPID[id], im.LastEpoch[id] = k.pid, k.epoch
	}
	return im
}

// FromImage rebuilds the snapshot from its exported form, adopting
// the image's entry lists and epoch floors. It returns an error when
// the image is internally inconsistent (parallel arrays of unequal
// length).
func (s *LogSnapshot) FromImage(im *LogImage) error {
	if len(im.LastPID) != len(im.LastEpoch) {
		return fmt.Errorf("mem: log image lastKey arrays disagree (%d pids, %d epochs)",
			len(im.LastPID), len(im.LastEpoch))
	}
	if len(im.PerPID) != len(im.MinEpoch) {
		return fmt.Errorf("mem: log image perPID/minEpoch arrays disagree (%d lists, %d floors)",
			len(im.PerPID), len(im.MinEpoch))
	}
	s.perPID, s.minEpoch = im.PerPID, im.MinEpoch
	s.lastKey = make([]logKey, len(im.LastPID))
	for id := range s.lastKey {
		s.lastKey[id] = logKey{pid: im.LastPID[id], epoch: im.LastEpoch[id]}
	}
	s.total, s.nextSeq, s.sinceStub = im.Total, im.NextSeq, im.SinceStub
	s.alwaysLog = im.AlwaysLog
	return nil
}

// EntriesFor returns (for tests and debugging) the live entries of one
// processor in ascending seq order.
func (l *Log) EntriesFor(pid int) []Entry {
	if pid < 0 || pid >= len(l.perPID) {
		return nil
	}
	if len(l.perPID[pid]) == 0 {
		return nil
	}
	return append([]Entry(nil), l.perPID[pid]...)
}

// CheckInvariants panics if the log's internal ordering is broken.
func (l *Log) CheckInvariants() {
	for pid := range l.perPID {
		var prev uint64
		for i, e := range l.perPID[pid] {
			if e.Seq <= prev {
				panic(fmt.Sprintf("mem: log entry %d of pid %d out of order (seq %d after %d)",
					i, pid, e.Seq, prev))
			}
			if e.PID != pid {
				panic(fmt.Sprintf("mem: log entry %d filed under pid %d carries pid %d", i, pid, e.PID))
			}
			prev = e.Seq
		}
	}
}
