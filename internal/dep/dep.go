// Package dep implements the Dep registers of Rebound (§3.3.1, §4.2):
// per-processor MyProducers and MyConsumers bit vectors plus the Write
// Signature (WSIG), organised as a small ring of register sets so a
// processor can keep dependence state for several outstanding
// checkpoint intervals (multiple checkpoints, §4.2; the paper's
// evaluation uses at most 4 sets).
package dep

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/sig"
)

// RegSet is one set of Dep registers, covering a single checkpoint
// interval (epoch).
type RegSet struct {
	// Epoch is the checkpoint interval this set covers.
	Epoch uint64
	// MyProducers has bit j set if processor j produced data consumed
	// by this processor during the epoch. It may be a superset of the
	// truth (stale LW-IDs, WSIG false positives) — never a subset.
	MyProducers *bitset.Bitset
	// MyConsumers has bit j set if processor j consumed data this
	// processor produced during the epoch.
	MyConsumers *bitset.Bitset
	// WSIG encodes the lines written (or read exclusively) during the
	// epoch; used to answer "are you the last writer?" (§3.3.2).
	WSIG *sig.Paired

	// PExact and CExact are measurement-only shadows of MyProducers
	// and MyConsumers maintained with an ideal (exact) write signature.
	// They quantify how much WSIG false positives inflate the
	// interaction set (Table 6.1 row 1); the hardware has no such state.
	PExact *bitset.Bitset
	CExact *bitset.Bitset
}

func newRegSet(sigBits, sigHashes int) *RegSet {
	return &RegSet{
		MyProducers: bitset.New(64),
		MyConsumers: bitset.New(64),
		WSIG:        sig.NewPaired(sigBits, sigHashes),
		PExact:      bitset.New(64),
		CExact:      bitset.New(64),
	}
}

func (r *RegSet) clear(epoch uint64) {
	r.Epoch = epoch
	r.MyProducers.Reset()
	r.MyConsumers.Reset()
	r.WSIG.Clear()
	r.PExact.Reset()
	r.CExact.Reset()
}

// Tracker manages a processor's ring of Dep register sets. Sets are
// ordered oldest to newest; the newest covers the current epoch. The
// recycling *policy* (a set frees only when the checkpoint following
// its epoch completed at least L cycles ago) is enforced by the
// checkpointing scheme, which calls Release when the condition holds.
type Tracker struct {
	capacity  int
	sigBits   int
	sigHashes int
	live      []*RegSet // oldest first
	free      []*RegSet
	// all holds every physical set in construction order, permanently:
	// snapshot Load and Reset repartition live/free over it without
	// allocating (sets are interchangeable once their contents are
	// overwritten).
	all []*RegSet
}

// NewTracker returns a tracker with capacity register sets (the paper
// evaluates 4) using the given WSIG geometry. The first epoch (0) is
// opened immediately.
func NewTracker(capacity, sigBits, sigHashes int) *Tracker {
	if capacity < 2 {
		// Delayed writebacks alone require two live sets (§4.1).
		panic("dep: need at least 2 register sets")
	}
	t := &Tracker{capacity: capacity, sigBits: sigBits, sigHashes: sigHashes}
	t.all = make([]*RegSet, capacity)
	t.free = make([]*RegSet, 0, capacity)
	t.live = make([]*RegSet, 0, capacity)
	for i := 0; i < capacity; i++ {
		t.all[i] = newRegSet(sigBits, sigHashes)
		t.free = append(t.free, t.all[i])
	}
	t.mustOpen(0)
	return t
}

// Capacity returns the total number of register sets.
func (t *Tracker) Capacity() int { return t.capacity }

// LiveCount returns the number of sets currently in use.
func (t *Tracker) LiveCount() int { return len(t.live) }

// CanOpen reports whether a new epoch can be opened without stalling.
func (t *Tracker) CanOpen() bool { return len(t.free) > 0 }

// Open starts a new epoch. It returns false (and changes nothing) if no
// register set is free — the processor must stall (§4.2).
func (t *Tracker) Open(epoch uint64) bool {
	if len(t.free) == 0 {
		return false
	}
	t.mustOpen(epoch)
	return true
}

func (t *Tracker) mustOpen(epoch uint64) {
	if len(t.live) > 0 && epoch <= t.Current().Epoch {
		panic(fmt.Sprintf("dep: epoch %d not newer than current %d", epoch, t.Current().Epoch))
	}
	s := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	s.clear(epoch)
	t.live = append(t.live, s)
}

// Current returns the newest (active) register set.
func (t *Tracker) Current() *RegSet {
	if len(t.live) == 0 {
		panic("dep: no live register set")
	}
	return t.live[len(t.live)-1]
}

// Oldest returns the oldest live register set.
func (t *Tracker) Oldest() *RegSet {
	if len(t.live) == 0 {
		panic("dep: no live register set")
	}
	return t.live[0]
}

// ByEpoch returns the live set covering epoch, or nil.
func (t *Tracker) ByEpoch(epoch uint64) *RegSet {
	for _, s := range t.live {
		if s.Epoch == epoch {
			return s
		}
	}
	return nil
}

// Release frees the oldest live set, which must cover epoch (a sanity
// check that the scheme's recycling logic agrees with the ring order).
// The current set can never be released.
func (t *Tracker) Release(epoch uint64) {
	if len(t.live) <= 1 {
		panic("dep: cannot release the current register set")
	}
	if t.live[0].Epoch != epoch {
		panic(fmt.Sprintf("dep: release of epoch %d but oldest is %d", epoch, t.live[0].Epoch))
	}
	s := t.live[0]
	t.live = t.live[1:]
	t.free = append(t.free, s)
}

// ReleaseAllButCurrent frees every set except the newest (used on
// rollback, which discards the rolled-back epochs' dependence state).
func (t *Tracker) ReleaseAllButCurrent() {
	for len(t.live) > 1 {
		s := t.live[0]
		t.live = t.live[1:]
		t.free = append(t.free, s)
	}
}

// ResetCurrent clears the newest set for reuse under a new epoch
// (rollback re-executes the interval from scratch).
func (t *Tracker) ResetCurrent(epoch uint64) { t.Current().clear(epoch) }

// LastWriterEpoch implements the multiple-checkpoint "are you the last
// writer?" rule of §4.2: test the address against the live WSIGs in
// reverse age order (newest first) and return the epoch of the first
// match. Matching the newest interval is the conservative choice when
// the address appears in several.
func (t *Tracker) LastWriterEpoch(line uint64) (uint64, bool) {
	for i := len(t.live) - 1; i >= 0; i-- {
		if t.live[i].WSIG.Test(line) {
			return t.live[i].Epoch, true
		}
	}
	return 0, false
}

// LastWriterEpochExact is LastWriterEpoch with the idealised signature,
// for the Table 6.1 false-positive measurement.
func (t *Tracker) LastWriterEpochExact(line uint64) (uint64, bool) {
	for i := len(t.live) - 1; i >= 0; i-- {
		if t.live[i].WSIG.TestExact(line) {
			return t.live[i].Epoch, true
		}
	}
	return 0, false
}

// ConsumersFrom ORs the MyConsumers of every live epoch >= epoch — the
// set of processors that must be asked to roll back when those
// intervals are undone (§4.2, second event).
func (t *Tracker) ConsumersFrom(epoch uint64) *bitset.Bitset {
	out := bitset.New(64)
	for _, s := range t.live {
		if s.Epoch >= epoch {
			out.Or(s.MyConsumers)
		}
	}
	return out
}

// Live returns the live sets oldest-first (shared storage; callers must
// not retain across Open/Release).
func (t *Tracker) Live() []*RegSet { return t.live }

// SetSnapshot is one register set's saved state. Sets are captured in
// ring order — live oldest-first, then the free stack bottom-first — so
// a Load reproduces not just the contents but the exact recycling order.
type SetSnapshot struct {
	Epoch       uint64
	MyProducers *bitset.Bitset
	MyConsumers *bitset.Bitset
	PExact      *bitset.Bitset
	CExact      *bitset.Bitset
	WSIG        sig.PairedSnapshot
}

// Snapshot is a saved tracker image.
type Snapshot struct {
	NLive int
	Sets  []SetSnapshot
}

func (ss *SetSnapshot) save(r *RegSet) {
	ss.Epoch = r.Epoch
	if ss.MyProducers == nil {
		ss.MyProducers = bitset.New(64)
		ss.MyConsumers = bitset.New(64)
		ss.PExact = bitset.New(64)
		ss.CExact = bitset.New(64)
	}
	ss.MyProducers.CopyFrom(r.MyProducers)
	ss.MyConsumers.CopyFrom(r.MyConsumers)
	ss.PExact.CopyFrom(r.PExact)
	ss.CExact.CopyFrom(r.CExact)
	r.WSIG.Save(&ss.WSIG)
}

func (ss *SetSnapshot) load(r *RegSet) {
	r.Epoch = ss.Epoch
	r.MyProducers.CopyFrom(ss.MyProducers)
	r.MyConsumers.CopyFrom(ss.MyConsumers)
	r.PExact.CopyFrom(ss.PExact)
	r.CExact.CopyFrom(ss.CExact)
	r.WSIG.Load(&ss.WSIG)
}

// Save copies the tracker state into s, reusing its storage.
func (t *Tracker) Save(s *Snapshot) {
	s.NLive = len(t.live)
	if cap(s.Sets) < t.capacity {
		s.Sets = make([]SetSnapshot, t.capacity)
	} else {
		s.Sets = s.Sets[:t.capacity]
	}
	i := 0
	for _, r := range t.live {
		s.Sets[i].save(r)
		i++
	}
	for _, r := range t.free {
		s.Sets[i].save(r)
		i++
	}
}

// CheckSnapshot reports whether s fits t's shape, Load's precondition:
// one saved set per physical set, at least one of them live, and every
// set holding its four registers and a signature of t's geometry.
func (t *Tracker) CheckSnapshot(s *Snapshot) error {
	if len(s.Sets) != t.capacity {
		return fmt.Errorf("dep: snapshot holds %d register sets, tracker has %d", len(s.Sets), t.capacity)
	}
	if s.NLive < 1 || s.NLive > t.capacity {
		return fmt.Errorf("dep: snapshot has %d live register sets, want 1..%d", s.NLive, t.capacity)
	}
	for i := range s.Sets {
		ss := &s.Sets[i]
		if ss.MyProducers == nil || ss.MyConsumers == nil || ss.PExact == nil || ss.CExact == nil {
			return fmt.Errorf("dep: snapshot register set %d lacks a bitset", i)
		}
		if err := t.all[i].WSIG.CheckSnapshot(&ss.WSIG); err != nil {
			return fmt.Errorf("dep: register set %d: %w", i, err)
		}
	}
	return nil
}

// Load restores the tracker from s: the first NLive saved sets become
// the live ring (oldest first), the rest the free stack, repartitioned
// over the permanent physical sets without allocating. Which physical
// set carries which saved slot is irrelevant — contents are fully
// overwritten. The tracker's capacity must match the capture.
func (t *Tracker) Load(s *Snapshot) {
	if len(s.Sets) != t.capacity {
		panic("dep: snapshot capacity mismatch")
	}
	t.live = t.live[:0]
	t.free = t.free[:0]
	for i, r := range t.all {
		s.Sets[i].load(r)
		if i < s.NLive {
			t.live = append(t.live, r)
		} else {
			t.free = append(t.free, r)
		}
	}
}

// FalsePositiveStats sums WSIG membership tests and false positives
// across all register sets (live and free; counters are cumulative).
func (t *Tracker) FalsePositiveStats() (tests, fps uint64) {
	for _, s := range t.live {
		tests += s.WSIG.Tests
		fps += s.WSIG.FalsePositives
	}
	for _, s := range t.free {
		tests += s.WSIG.Tests
		fps += s.WSIG.FalsePositives
	}
	return
}
