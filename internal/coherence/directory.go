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
// Directory state is stored in dense per-shard slices indexed by
// interned line IDs (the machine-wide mem.LineTable) through the
// machine's mem.Sharding (shard = low ID bits, slot = remaining bits):
// one owner word, one LW-ID word and a fixed number of sharer-bitmap
// words per line, so a transaction pays a single intern lookup plus two
// shifts and then runs on dense arrays. A 1-shard directory is one flat
// ID-indexed array per column. Sharer updates are batched per
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
	sh    mem.Sharding

	// Per-line state, partitioned per shard and indexed by slot.
	// sharers holds wpp bitmap words per line, carved from one backing
	// slice per shard.
	owner   [][]int32
	lwid    [][]int32
	sharers [][]uint64
	wpp     int

	// dirty tracks entries mutated since the last Load/LoadDelta, one
	// per-shard tracker with one mark per slot covering its owner,
	// LW-ID and sharer words (cow.Dirty pages those into ranges).
	// entryID growth is exempt: the appended defaults are exactly what
	// a load resets a post-capture tail to.
	dirty []cow.Dirty

	// L2HitCycles is charged for the remote L2 access on forwarded
	// requests.
	L2HitCycles sim.Cycle
}

// New returns a directory for the given tiles, sharing the memory
// controller's line table and adopting its state-partition layout.
func New(tp *topo.Topology, st *stats.Stats, ctrl *mem.Controller, nodes []Node) *Directory {
	wpp := (len(nodes) + 63) / 64
	if wpp < 1 {
		wpp = 1
	}
	sh := ctrl.Memory().Sharding()
	return &Directory{
		topo:        tp,
		st:          st,
		ctrl:        ctrl,
		nodes:       nodes,
		tab:         ctrl.Memory().Table(),
		sh:          sh,
		owner:       make([][]int32, sh.N()),
		lwid:        make([][]int32, sh.N()),
		sharers:     make([][]uint64, sh.N()),
		wpp:         wpp,
		dirty:       make([]cow.Dirty, sh.N()),
		L2HitCycles: 8,
	}
}

// NumShards returns the shard count of the per-line state.
func (d *Directory) NumShards() int { return len(d.owner) }

// entryID interns line and grows the per-line state to cover it. Other
// users of the shared table (memory, log) may have interned lines this
// directory has never seen, so growth tracks the table, not just
// directory traffic.
func (d *Directory) entryID(line uint64) int32 {
	id := d.tab.ID(line)
	shd, sl := d.sh.Shard(id), d.sh.Slot(id)
	for sl >= len(d.owner[shd]) {
		d.owner[shd] = append(d.owner[shd], noProc)
		d.lwid[shd] = append(d.lwid[shd], noProc)
		for i := 0; i < d.wpp; i++ {
			d.sharers[shd] = append(d.sharers[shd], 0)
		}
	}
	return id
}

// The per-entry accessors below re-derive (shard, slot) on each call
// rather than holding pointers or sub-slices: entryID growth can
// reallocate a shard's backing arrays mid-transaction (a Node callback
// may intern a new line), and two shifts per access is noise next to
// the intern lookup the transaction already paid.

func (d *Directory) getOwner(id int32) int32 { return d.owner[d.sh.Shard(id)][d.sh.Slot(id)] }

func (d *Directory) setOwner(id int32, v int32) {
	d.owner[d.sh.Shard(id)][d.sh.Slot(id)] = v
}

func (d *Directory) getLWID(id int32) int32 { return d.lwid[d.sh.Shard(id)][d.sh.Slot(id)] }

func (d *Directory) setLWID(id int32, v int32) {
	d.lwid[d.sh.Shard(id)][d.sh.Slot(id)] = v
}

// mark flags id's entry dirty for the copy-on-write restore.
func (d *Directory) mark(id int32) { d.dirty[d.sh.Shard(id)].Mark(d.sh.Slot(id)) }

// sharerWords returns the sharer bitmap of id. Not stable across
// entryID growth — re-fetch after any Node callback.
func (d *Directory) sharerWords(id int32) []uint64 {
	shd, sl := d.sh.Shard(id), d.sh.Slot(id)
	off := sl * d.wpp
	return d.sharers[shd][off : off+d.wpp : off+d.wpp]
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
	if id, ok := d.tab.Lookup(line); ok {
		shd, sl := d.sh.Shard(id), d.sh.Slot(id)
		if sl < len(d.lwid[shd]) {
			return int(d.lwid[shd][sl])
		}
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
	if id, ok := d.tab.Lookup(line); ok {
		if d.sh.Slot(id) < len(d.owner[d.sh.Shard(id)]) {
			d.mark(id)
			clrBit(d.sharerWords(id), pid)
		}
	}
}

// DetachProc removes pid from every directory entry: ownership and
// sharer bits are dropped and LW-IDs pointing at pid are cleared. Used
// on rollback, after pid's caches are invalidated (§3.3.5).
func (d *Directory) DetachProc(pid int) {
	w, bit := pid>>6, uint64(1)<<uint(pid&63)
	for shd := range d.owner {
		d.dirty[shd].MarkAll()
		for sl := range d.owner[shd] {
			if d.owner[shd][sl] == int32(pid) {
				d.owner[shd][sl] = noProc
			}
			if d.lwid[shd][sl] == int32(pid) {
				d.lwid[shd][sl] = noProc
			}
		}
		for off := w; off < len(d.sharers[shd]); off += d.wpp {
			d.sharers[shd][off] &^= bit
		}
	}
}

// Snapshot is a saved directory image: the per-shard per-line state
// arrays. Save reuses its storage across captures. FlatImage /
// LoadFlatImage convert to and from the flat ID-indexed layout the
// persistent codec writes at every shard count.
type Snapshot struct {
	owner   [][]int32
	lwid    [][]int32
	sharers [][]uint64
	wpp     int
}

// FlatImage returns the capture as flat ID-indexed arrays, gathered
// from the capture's own shard layout. For a single-shard capture the
// arrays are the shard's own (zero-copy).
func (s *Snapshot) FlatImage() (owner, lwid []int32, sharers []uint64) {
	if len(s.owner) <= 1 {
		if len(s.owner) == 0 {
			return nil, nil, nil
		}
		return s.owner[0], s.lwid[0], s.sharers[0]
	}
	sh := mem.NewSharding(len(s.owner))
	limit := 0
	for i := range s.owner {
		if n := len(s.owner[i]); n > 0 {
			if id := int(sh.ID(i, n-1)) + 1; id > limit {
				limit = id
			}
		}
	}
	owner = make([]int32, limit)
	lwid = make([]int32, limit)
	sharers = make([]uint64, limit*s.wpp)
	for id := 0; id < limit; id++ {
		shd, sl := sh.Shard(int32(id)), sh.Slot(int32(id))
		if sl >= len(s.owner[shd]) {
			owner[id], lwid[id] = noProc, noProc
			continue
		}
		owner[id] = s.owner[shd][sl]
		lwid[id] = s.lwid[shd][sl]
		copy(sharers[id*s.wpp:(id+1)*s.wpp], s.sharers[shd][sl*s.wpp:(sl+1)*s.wpp])
	}
	return owner, lwid, sharers
}

// LoadFlatImage installs flat ID-indexed arrays, scattering them into
// sh's layout (persistent codec decode path; single-shard captures
// adopt the slices directly).
func (s *Snapshot) LoadFlatImage(sh mem.Sharding, owner, lwid []int32, sharers []uint64, wpp int) error {
	if len(owner) != len(lwid) || len(sharers) != len(owner)*wpp {
		return fmt.Errorf("coherence: flat snapshot arrays disagree (%d owners, %d lwids, %d sharer words, wpp %d)",
			len(owner), len(lwid), len(sharers), wpp)
	}
	s.wpp = wpp
	if sh.N() == 1 {
		s.owner = [][]int32{owner}
		s.lwid = [][]int32{lwid}
		s.sharers = [][]uint64{sharers}
		return nil
	}
	s.owner = make([][]int32, sh.N())
	s.lwid = make([][]int32, sh.N())
	s.sharers = make([][]uint64, sh.N())
	for i := range s.owner {
		n := sh.SlotsFor(len(owner), i)
		s.owner[i] = make([]int32, n)
		s.lwid[i] = make([]int32, n)
		s.sharers[i] = make([]uint64, n*wpp)
	}
	for id := range owner {
		shd, sl := sh.Shard(int32(id)), sh.Slot(int32(id))
		s.owner[shd][sl] = owner[id]
		s.lwid[shd][sl] = lwid[id]
		copy(s.sharers[shd][sl*wpp:(sl+1)*wpp], sharers[id*wpp:(id+1)*wpp])
	}
	return nil
}

// prepare sizes s for n shards, keeping per-shard storage.
func (s *Snapshot) prepare(n, wpp int) {
	grow := func(dst [][]int32) [][]int32 {
		if cap(dst) < n {
			old := dst
			dst = make([][]int32, n)
			copy(dst, old)
		} else {
			dst = dst[:n]
		}
		return dst
	}
	s.owner = grow(s.owner)
	s.lwid = grow(s.lwid)
	if cap(s.sharers) < n {
		old := s.sharers
		s.sharers = make([][]uint64, n)
		copy(s.sharers, old)
	} else {
		s.sharers = s.sharers[:n]
	}
	s.wpp = wpp
}

// Save copies the per-line state into s.
func (d *Directory) Save(s *Snapshot) {
	d.SavePrepare(s)
	for i := range d.owner {
		d.SaveShard(s, i)
	}
}

// SavePrepare sizes s for a per-shard parallel save (machine snapshot
// executor): after it returns, SaveShard calls for distinct shards are
// safe concurrently.
func (d *Directory) SavePrepare(s *Snapshot) { s.prepare(len(d.owner), d.wpp) }

// SaveShard copies one shard's per-line state into s. The caller must
// have sized s with SavePrepare; distinct shards may be saved
// concurrently (disjoint storage).
func (d *Directory) SaveShard(s *Snapshot, i int) {
	s.owner[i] = append(s.owner[i][:0], d.owner[i]...)
	s.lwid[i] = append(s.lwid[i][:0], d.lwid[i]...)
	s.sharers[i] = append(s.sharers[i][:0], d.sharers[i]...)
}

// Load restores the per-line state from s. Entries grown past the
// capture (lines interned by a discarded trial) are reset to the
// untouched defaults a fresh build would hold for them; a colder
// directory grows to the captured size.
func (d *Directory) Load(s *Snapshot) {
	for i := range d.owner {
		d.LoadShard(s, i)
	}
}

// LoadShard restores one shard from s (full copy). Distinct shards may
// be loaded concurrently.
func (d *Directory) LoadShard(s *Snapshot, i int) {
	so, sl, ss := s.owner[i], s.lwid[i], s.sharers[i]
	for len(d.owner[i]) < len(so) {
		d.owner[i] = append(d.owner[i], noProc)
		d.lwid[i] = append(d.lwid[i], noProc)
		for k := 0; k < d.wpp; k++ {
			d.sharers[i] = append(d.sharers[i], 0)
		}
	}
	copy(d.owner[i], so)
	copy(d.lwid[i], sl)
	copy(d.sharers[i], ss)
	for k := len(so); k < len(d.owner[i]); k++ {
		d.owner[i][k] = noProc
		d.lwid[i][k] = noProc
	}
	clear(d.sharers[i][len(ss):])
	d.dirty[i].Clear()
}

// LoadDelta restores the per-line state from s touching only the
// entries mutated since the last load. The caller guarantees the live
// state was last loaded from this same capture; anything else must use
// Load. Entries past the captured size revert to the untouched
// defaults, exactly as in Load.
func (d *Directory) LoadDelta(s *Snapshot) {
	for i := range d.owner {
		d.LoadDeltaShard(s, i)
	}
}

// LoadDeltaShard restores one shard from s copying only the pages
// marked dirty since the last load. Distinct shards may be loaded
// concurrently; a live shard shorter than the capture falls back to a
// full load.
func (d *Directory) LoadDeltaShard(s *Snapshot, i int) {
	n := len(s.owner[i])
	if d.dirty[i].All() || len(d.owner[i]) < n {
		d.LoadShard(s, i)
		return
	}
	d.dirty[i].Pages(len(d.owner[i]), func(lo, hi int) {
		end := hi
		if end > n {
			end = n
		}
		if lo < n {
			copy(d.owner[i][lo:end], s.owner[i][lo:end])
			copy(d.lwid[i][lo:end], s.lwid[i][lo:end])
			copy(d.sharers[i][lo*d.wpp:end*d.wpp], s.sharers[i][lo*d.wpp:end*d.wpp])
		}
		for k := max(lo, n); k < hi; k++ {
			d.owner[i][k] = noProc
			d.lwid[i][k] = noProc
		}
		if hi > n {
			clear(d.sharers[i][max(lo, n)*d.wpp : hi*d.wpp])
		}
	})
	d.dirty[i].Clear()
}

// CheckInvariants validates the directory against the actual cache
// contents: an owned entry has no sharers, and every processor the
// directory believes holds a copy either holds it or (owner case) may
// have silently evicted a clean line. holds reports whether pid's L2
// currently has a valid copy of line; dirtyAt reports whether it is
// dirty. Panics on violation; used by tests and debug runs.
func (d *Directory) CheckInvariants(holds func(pid int, line uint64) (present, dirty bool)) {
	for shd := range d.owner {
		for sl := range d.owner[shd] {
			id := d.sh.ID(shd, sl)
			line := d.tab.Addr(id)
			sh := d.sharerWords(id)
			owner := d.owner[shd][sl]
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
			if owner != noProc {
				// A silently evicted clean-exclusive line is allowed; a
				// dirty line must never vanish without a writeback.
				if present, _ := holds(int(owner), line); !present {
					continue
				}
			}
		}
	}
}
