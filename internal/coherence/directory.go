// Package coherence implements the full-map directory MESI protocol of
// the Rebound manycore, augmented with the Last-Writer-ID (LW-ID) field
// per directory entry and the lazy dependence recording of §3.3.1:
//
//   - WR/Upgrade: invalidate sharers, record old-LW-ID → writer
//     dependence, set LW-ID to the writer.
//   - RD: forward to the owner if any; record LW-ID → reader dependence
//     via an "are you the last writer?" query answered from the WSIG
//     (NO_WR clears a stale LW-ID, §3.3.2).
//   - RDX (read that returns Exclusive): sets LW-ID like a write, since
//     the processor may later write silently.
//
// Coherence transactions execute atomically (functional protocol); the
// requesting processor is charged the transaction latency, and the
// extra dependence-maintenance messages are accounted separately
// (Table 6.1 row 3).
//
// Directory state is stored in dense slices indexed by interned line
// IDs (the machine-wide mem.LineTable): one owner word, one LW-ID word
// and a fixed number of sharer-bitmap words per line, so a transaction
// pays a single intern lookup and then runs on dense arrays. Sharer
// updates are batched per
// transaction: the invalidation fan-out walks the bitmap words inline
// and accounts messages once, instead of per-sharer closure calls into
// a heap-allocated bitset.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cow"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Node is the per-tile L2 controller surface the directory talks to.
// It is implemented by the machine's processor model.
type Node interface {
	// Recall asks the node for its copy of line. If invalidate is
	// true the copy is removed (L1 included); otherwise it is
	// downgraded to Shared. ok is false if the node no longer holds
	// the line (silent clean eviction left the directory stale).
	Recall(line uint64, invalidate bool) (data mem.Word, dirty bool, epoch uint64, ok bool)
	// InvalidateShared removes a clean shared copy (L1 included).
	InvalidateShared(line uint64)
	// LastWriterCheck is the "are you the last writer of line?" query:
	// the node tests line against its live WSIGs in reverse age order
	// and, on a match, sets bit consumer in that epoch's MyConsumers
	// and returns ok. It returns ok=false (NO_WR) when no WSIG matches,
	// telling the directory to clear the stale LW-ID. exact is the
	// answer an ideal signature would have given (measurement only for
	// Table 6.1; exact implies ok).
	LastWriterCheck(line uint64, consumer int) (ok, exact bool)
	// AddProducer sets bit producer in the node's current MyProducers.
	// Per §3.3.2 this happens unconditionally (before any NO_WR reply
	// could arrive), so MyProducers may be a superset of the truth.
	// exact=true additionally updates the measurement-only shadow.
	AddProducer(producer int, exact bool)
}

const noProc = -1

// Directory is the (logically distributed, physically one-per-tile)
// full-map directory.
type Directory struct {
	topo  *topo.Topology
	st    *stats.Stats
	ctrl  *mem.Controller
	nodes []Node
	tab   *mem.LineTable

	// Per-line state, indexed by interned line ID. sharers holds wpp
	// bitmap words per line.
	owner   []int32
	lwid    []int32
	sharers []uint64
	wpp     int

	// dirty tracks entries mutated since the last load, one mark per
	// line ID covering its owner, LW-ID and sharer words (cow.Dirty
	// pages those into ranges). entryID growth is exempt: the appended
	// defaults are exactly what a load resets a post-capture tail to.
	dirty cow.Dirty

	// L2HitCycles is charged for the remote L2 access on forwarded
	// requests.
	L2HitCycles sim.Cycle
}

// New returns a directory for the given tiles, sharing the memory
// controller's line table.
func New(tp *topo.Topology, st *stats.Stats, ctrl *mem.Controller, nodes []Node) *Directory {
	wpp := (len(nodes) + 63) / 64
	if wpp < 1 {
		wpp = 1
	}
	return &Directory{
		topo:        tp,
		st:          st,
		ctrl:        ctrl,
		nodes:       nodes,
		tab:         ctrl.Memory().Table(),
		wpp:         wpp,
		L2HitCycles: 8,
	}
}

// entryID interns line and grows the per-line state to cover it. Other
// users of the shared table (memory, log) may have interned lines this
// directory has never seen, so growth tracks the table, not just
// directory traffic.
func (d *Directory) entryID(line uint64) int32 {
	id := d.tab.ID(line)
	if int(id) >= len(d.owner) {
		d.grow(int(id) + 1)
	}
	return id
}

// grow extends the per-line state to cover n line IDs with the
// untouched defaults.
func (d *Directory) grow(n int) {
	for len(d.owner) < n {
		d.owner = append(d.owner, noProc)
		d.lwid = append(d.lwid, noProc)
		for i := 0; i < d.wpp; i++ {
			d.sharers = append(d.sharers, 0)
		}
	}
}

// The per-entry accessors below index the columns on each call rather
// than holding pointers or sub-slices: entryID growth can reallocate
// the backing arrays mid-transaction (a Node callback may intern a new
// line).

func (d *Directory) getOwner(id int32) int32 { return d.owner[id] }

func (d *Directory) setOwner(id int32, v int32) { d.owner[id] = v }

func (d *Directory) getLWID(id int32) int32 { return d.lwid[id] }

func (d *Directory) setLWID(id int32, v int32) { d.lwid[id] = v }

// mark flags id's entry dirty for the copy-on-write restore.
func (d *Directory) mark(id int32) { d.dirty.Mark(int(id)) }

// sharerWords returns the sharer bitmap of id. Not stable across
// entryID growth — re-fetch after any Node callback.
func (d *Directory) sharerWords(id int32) []uint64 {
	off := int(id) * d.wpp
	return d.sharers[off : off+d.wpp : off+d.wpp]
}

func setBit(w []uint64, i int) { w[i>>6] |= 1 << uint(i&63) }
func clrBit(w []uint64, i int) { w[i>>6] &^= 1 << uint(i&63) }

func testBit(w []uint64, i int) bool { return w[i>>6]&(1<<uint(i&63)) != 0 }

func clearWords(w []uint64) { clear(w) }

func wordsEmpty(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// LWID returns the last-writer field of line (noProc==-1 when null).
func (d *Directory) LWID(line uint64) int {
	if id, ok := d.tab.Lookup(line); ok && int(id) < len(d.lwid) {
		return int(d.lwid[id])
	}
	return noProc
}

// recordDependence performs the lazy dependence recording of §3.3.1 for
// a transaction by pid on line: the requester optimistically sets
// MyProducers[lwid]; the LW-ID processor checks its WSIGs and either
// sets MyConsumers[pid] or answers NO_WR, clearing the stale LW-ID.
// piggybacked marks the LW-ID processor as already on the transaction's
// message path (the recalled owner), in which case the query rides the
// existing messages for free.
func (d *Directory) recordDependence(pid int, line uint64, id int32, piggybacked bool) {
	lw := d.getLWID(id)
	if lw == noProc || int(lw) == pid {
		return
	}
	if !piggybacked {
		d.st.DepMessages += 2 // query to LW-ID proc + its reply
	}
	ok, exact := d.nodes[lw].LastWriterCheck(line, pid)
	d.nodes[pid].AddProducer(int(lw), exact)
	if !ok {
		d.setLWID(id, noProc) // NO_WR: stale LW-ID cleared
	}
}

// ReadResult is the outcome of a load miss transaction.
type ReadResult struct {
	Data mem.Word
	// State is the MESI state granted to the requester: Exclusive when
	// no other sharer exists (an RDX, §3.3.1), Shared otherwise.
	State cache.State
	// Latency is the critical-path delay of the transaction, excluding
	// the requester's own L2 access.
	Latency sim.Cycle
}

// Read performs a GetS transaction for pid on line.
func (d *Directory) Read(pid int, line uint64) ReadResult {
	id := d.entryID(line)
	d.mark(id) // every Read path mutates the entry
	home := d.topo.Home(line)
	lat := d.topo.Latency(pid, home)
	d.st.CohMessages++ // request

	if owner := d.getOwner(id); owner != noProc && int(owner) != pid {
		data, dirty, epoch, ok := d.nodes[owner].Recall(line, false)
		if ok {
			// Forward to owner; owner supplies the line and downgrades
			// to Shared; a dirty copy is also written back to memory
			// (MESI M→S), which the controller logs — off the read's
			// critical path.
			d.st.CohMessages += 3 // fwd, data-to-requester, ack-to-home
			lat += d.topo.Latency(home, int(owner)) + d.L2HitCycles + d.topo.Latency(int(owner), pid)
			if dirty {
				d.ctrl.WritebackID(int(owner), epoch, id, line, data)
			}
			sh := d.sharerWords(id)
			setBit(sh, int(owner))
			d.setOwner(id, noProc)
			setBit(sh, pid)
			d.recordDependence(pid, line, id, d.getLWID(id) == owner)
			return ReadResult{Data: data, State: cache.Shared, Latency: lat}
		}
		// Stale owner (silent clean eviction): fall through to memory.
		d.setOwner(id, noProc)
	}

	d.recordDependence(pid, line, id, false)

	// If clean sharers exist, the nearest one supplies the line
	// cache-to-cache (the paper's ~60-cycle remote-L2 path); memory for
	// S lines is up to date, so the value is memory's. Otherwise the
	// line comes from main memory.
	sh := d.sharerWords(id)
	supplier := -1
	for wi, w := range sh {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if i == pid {
				continue
			}
			if supplier < 0 || d.topo.Hops(home, i) < d.topo.Hops(home, supplier) {
				supplier = i
			}
		}
	}
	data := d.ctrl.Memory().ReadID(id)
	if supplier >= 0 {
		d.st.CohMessages += 3 // fwd, data, ack
		lat += d.topo.Latency(home, supplier) + d.L2HitCycles + d.topo.Latency(supplier, pid)
		setBit(sh, pid)
		return ReadResult{Data: data, State: cache.Shared, Latency: lat}
	}
	memLat := d.ctrl.DRAM().ReadLatency(line)
	lat += memLat + d.topo.Latency(home, pid)
	d.st.CohMessages++ // data message
	// No other copies: grant Exclusive (RDX). Like a write, this sets
	// LW-ID, because the processor may write silently later.
	clearWords(sh)
	d.setOwner(id, int32(pid))
	d.setLWID(id, int32(pid))
	return ReadResult{Data: data, State: cache.Exclusive, Latency: lat}
}

// WriteResult is the outcome of a store/RMW miss or upgrade transaction.
type WriteResult struct {
	// Data is the line's pre-write content (for read-modify-write).
	Data    mem.Word
	Latency sim.Cycle
}

// Write performs a GetX/Upgrade transaction for pid on line. The
// requester ends as exclusive owner; the machine marks its cached copy
// Modified and inserts the line in its current WSIG.
func (d *Directory) Write(pid int, line uint64) WriteResult {
	id := d.entryID(line)
	d.mark(id)
	home := d.topo.Home(line)
	lat := d.topo.Latency(pid, home)
	d.st.CohMessages++ // request

	var data mem.Word
	gotData := false
	// The dependence query rides for free on messages the transaction
	// already sends when the LW-ID processor is the recalled owner or
	// one of the invalidated sharers.
	lw := d.getLWID(id)
	piggy := lw != noProc && (lw == d.getOwner(id) || testBit(d.sharerWords(id), int(lw)))

	if owner := d.getOwner(id); owner != noProc && int(owner) != pid {
		if od, _, _, ok := d.nodes[owner].Recall(line, true); ok {
			// Dirty (or clean-exclusive) copy migrates cache-to-cache;
			// memory is not updated — the old value reaches the log
			// whenever the line is eventually written back.
			d.st.CohMessages += 3
			lat += d.topo.Latency(home, int(owner)) + d.L2HitCycles + d.topo.Latency(int(owner), pid)
			data, gotData = od, true
		}
		d.setOwner(id, noProc)
	}

	// Invalidate all other sharers; latency is the worst sharer round
	// trip (invalidations go in parallel). The fan-out is batched: one
	// pass over the bitmap words, messages accounted once at the end.
	//
	// sh is (re-)fetched after every Node callback section: entryID
	// growth reallocates the sharers backing array, so a sub-slice must
	// never be held across a call that could intern a new line. Today
	// no callback does (Recall's delayed-writeback path only touches
	// the already-interned recalled line), but holding a stale slice
	// here would silently drop sharer bits.
	sh := d.sharerWords(id)
	var worst sim.Cycle
	wasSharer := false
	invalidated := 0
	for wi, w := range sh {
		for w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if s == pid {
				wasSharer = true
				continue
			}
			d.nodes[s].InvalidateShared(line)
			invalidated++
			if rt := 2 * d.topo.Latency(home, s); rt > worst {
				worst = rt
			}
		}
	}
	d.st.CohMessages += uint64(2 * invalidated) // inval + ack per sharer
	lat += worst

	if !gotData {
		switch {
		case wasSharer || d.getOwner(id) == int32(pid):
			// Upgrade: requester already has the data.
			d.st.CohMessages++ // grant
			lat += d.topo.Latency(home, pid)
			data = d.ctrl.Memory().ReadID(id)
		case worst > 0:
			// An invalidated sharer supplied the (memory-current) data
			// cache-to-cache along with its ack.
			d.st.CohMessages++ // data message
			lat += d.topo.Latency(home, pid)
			data = d.ctrl.Memory().ReadID(id)
		default:
			memLat := d.ctrl.DRAM().ReadLatency(line)
			lat += memLat + d.topo.Latency(home, pid)
			d.st.CohMessages++ // data message
			data = d.ctrl.Memory().ReadID(id)
		}
	}

	d.recordDependence(pid, line, id, piggy)
	clearWords(d.sharerWords(id)) // re-fetched: callbacks ran since sh
	d.setOwner(id, int32(pid))
	d.setLWID(id, int32(pid))
	return WriteResult{Data: data, Latency: lat}
}

// WritebackEvict handles the displacement of a dirty line: the data is
// written (and logged) to memory and the processor gives up ownership.
// It returns the channel completion cycle. LW-ID is deliberately not
// cleared (§3.3.1: clearing it would lose dependence tracking).
func (d *Directory) WritebackEvict(pid int, line uint64, data mem.Word, epoch uint64) sim.Cycle {
	id := d.entryID(line)
	d.mark(id)
	if d.getOwner(id) == int32(pid) {
		d.setOwner(id, noProc)
	}
	clrBit(d.sharerWords(id), pid)
	d.st.CohMessages++ // writeback message
	d.st.L2WritebacksDemand++
	return d.ctrl.WritebackID(pid, epoch, id, line, data)
}

// WritebackRetain handles a checkpoint (or delayed) writeback: the data
// is written and logged to memory but the processor keeps a clean copy
// and remains owner (§3.3.1: "retaining clean copies in the caches";
// the directory clears the Dirty bit but not LW-ID).
func (d *Directory) WritebackRetain(pid int, line uint64, data mem.Word, epoch uint64, background bool) sim.Cycle {
	d.st.CohMessages++
	d.st.L2WritebacksCkpt++
	if background {
		d.st.L2WritebacksBg++
	}
	return d.ctrl.WritebackID(pid, epoch, d.entryID(line), line, data)
}

// DropShared records the silent eviction of a clean shared line.
func (d *Directory) DropShared(pid int, line uint64) {
	if id, ok := d.tab.Lookup(line); ok && int(id) < len(d.owner) {
		d.mark(id)
		clrBit(d.sharerWords(id), pid)
	}
}

// DetachProcs removes every processor in pids from every directory
// entry in one pass: ownership and sharer bits are dropped and LW-IDs
// pointing at them are cleared. Used on rollback, after the
// processors' caches are invalidated (§3.3.5). Only the entries it
// changes are marked dirty, so the next delta restore copies only
// their pages.
func (d *Directory) DetachProcs(pids []int) {
	mask := make([]uint64, d.wpp)
	for _, pid := range pids {
		setBit(mask, pid)
	}
	member := func(p int32) bool { return p != noProc && mask[p>>6]&(1<<uint(p&63)) != 0 }
	for id := range d.owner {
		changed := false
		if member(d.owner[id]) {
			d.owner[id], changed = noProc, true
		}
		if member(d.lwid[id]) {
			d.lwid[id], changed = noProc, true
		}
		sh := d.sharerWords(int32(id))
		for w, m := range mask {
			if sh[w]&m != 0 {
				sh[w] &^= m
				changed = true
			}
		}
		if changed {
			d.mark(int32(id))
		}
	}
}

// Snapshot is a saved directory image: the ID-indexed per-line
// columns, wpp sharer words per line. Its exported fields are also the
// persisted form (machine.EncodeSnapshot writes them as they are).
// SaveBegin reuses its storage across captures.
type Snapshot struct {
	Owner   []int32
	LWID    []int32
	Sharers []uint64
}

// SaveBegin sizes s for a save split into ID ranges (the machine
// snapshot executor's parallel save) and returns the number of line
// IDs to copy. After it, SaveRange calls over disjoint ranges of
// [0, n) may run concurrently.
func (d *Directory) SaveBegin(s *Snapshot) (n int) {
	n = len(d.owner)
	s.Owner = resize(s.Owner, n)
	s.LWID = resize(s.LWID, n)
	s.Sharers = resize(s.Sharers, n*d.wpp)
	return n
}

// resize returns a slice of length n, reusing a's storage when it is
// large enough. An empty request keeps a nil a nil.
func resize[T any](a []T, n int) []T {
	if cap(a) < n {
		return make([]T, n)
	}
	return a[:n]
}

// SaveRange copies the entries of line IDs [lo, hi) into s.
func (d *Directory) SaveRange(s *Snapshot, lo, hi int) {
	copy(s.Owner[lo:hi], d.owner[lo:hi])
	copy(s.LWID[lo:hi], d.lwid[lo:hi])
	copy(s.Sharers[lo*d.wpp:hi*d.wpp], d.sharers[lo*d.wpp:hi*d.wpp])
}

// CheckSnapshot reports whether s fits this directory: its columns
// must cover the same line IDs, with one sharer bitmap of the
// directory's width per line.
func (d *Directory) CheckSnapshot(s *Snapshot) error {
	if len(s.Owner) != len(s.LWID) || len(s.Sharers) != len(s.Owner)*d.wpp {
		return fmt.Errorf("coherence: snapshot columns disagree (%d owners, %d lwids, %d sharer words, wpp %d)",
			len(s.Owner), len(s.LWID), len(s.Sharers), d.wpp)
	}
	return nil
}

// LoadBegin starts a restore from s split into ID ranges (the machine
// snapshot executor's parallel load) and returns the number of line
// IDs the ranges cover. Entries grown past the capture (lines interned
// by a discarded trial) are reset to the untouched defaults a fresh
// build would hold for them; a colder directory grows to the captured
// size.
//
// delta selects the copy-on-write path, which restores only the
// entries marked dirty since the last load. The caller guarantees the
// live state was last loaded from this same capture; anything else
// must take the full path. A live directory smaller than the capture
// takes a full copy instead.
//
// After LoadBegin, LoadRange calls over disjoint ranges of [0, n) may
// run concurrently; LoadEnd finishes the restore.
func (d *Directory) LoadBegin(s *Snapshot, delta bool) (n int) {
	if !delta || len(d.owner) < len(s.Owner) {
		d.dirty.MarkAll()
		d.grow(len(s.Owner))
	}
	return len(d.owner)
}

// LoadRange restores the entries of line IDs [lo, hi) that LoadBegin's
// mode selects: captured entries are copied back, entries past the
// capture revert to their defaults.
func (d *Directory) LoadRange(s *Snapshot, lo, hi int) {
	n := len(s.Owner)
	d.dirty.Pages(lo, hi, func(lo, hi int) {
		end := min(hi, n)
		if lo < end {
			copy(d.owner[lo:end], s.Owner[lo:end])
			copy(d.lwid[lo:end], s.LWID[lo:end])
			copy(d.sharers[lo*d.wpp:end*d.wpp], s.Sharers[lo*d.wpp:end*d.wpp])
		}
		for k := max(lo, n); k < hi; k++ {
			d.owner[k] = noProc
			d.lwid[k] = noProc
		}
		if hi > n {
			clear(d.sharers[max(lo, n)*d.wpp : hi*d.wpp])
		}
	})
}

// LoadEnd marks the restored directory clean.
func (d *Directory) LoadEnd() { d.dirty.Clear() }

// CheckInvariants validates the directory against the actual cache
// contents: an owned entry has no sharers, and no sharer holds a dirty
// copy. holds reports whether pid's L2 currently has a valid copy of
// line and whether that copy is dirty. The owner's copy is not
// checked: an owner may have silently evicted a clean line. Panics on
// violation; used by tests and debug runs.
func (d *Directory) CheckInvariants(holds func(pid int, line uint64) (present, dirty bool)) {
	for id, owner := range d.owner {
		line := d.tab.Addr(int32(id))
		sh := d.sharerWords(int32(id))
		if owner != noProc && !wordsEmpty(sh) {
			panic(fmt.Sprintf("coherence: line %#x owned by %d but has sharers", line, owner))
		}
		for wi, w := range sh {
			for w != 0 {
				s := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if present, dirty := holds(s, line); present && dirty {
					panic(fmt.Sprintf("coherence: line %#x dirty at sharer %d", line, s))
				}
			}
		}
	}
}
