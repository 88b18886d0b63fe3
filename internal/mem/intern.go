package mem

import "fmt"

// LineTable interns line addresses into small dense IDs. One table is
// shared per machine by the memory, the undo log and the coherence
// directory, so the per-line state of all three lives in flat slices
// indexed by the same ID: a transaction pays one hash probe (the
// intern) instead of one map probe per structure. Line address spaces
// are small and fixed per workload profile, so the table stops growing
// after warm-up and the steady-state path is allocation-free.
//
// The index is an open-addressed hash table with linear probing: each
// slot holds an address and its ID plus one (zero marks an empty slot,
// so address 0 needs no sentinel). IDs are handed out in first-touch
// order, exactly as the map it replaces did.
type LineTable struct {
	slots []lineSlot // power-of-two length, at most half full
	shift uint       // 64 - log2(len(slots))
	addrs []uint64
}

// lineSlot is one slot of the open-addressed index.
type lineSlot struct {
	addr uint64
	id1  int32 // ID + 1; 0 marks an empty slot
}

// initialSlots sizes a new table for 1,024 lines at half load.
const initialSlots = 2048

// NewLineTable returns an empty table.
func NewLineTable() *LineTable {
	t := &LineTable{}
	t.resize(initialSlots)
	return t
}

// resize rebuilds the index with n slots (a power of two) from addrs.
func (t *LineTable) resize(n int) {
	t.slots = make([]lineSlot, n)
	t.shift = 64
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	for id, a := range t.addrs {
		t.slots[t.find(a)] = lineSlot{addr: a, id1: int32(id) + 1}
	}
}

// find returns the slot holding addr, or the empty slot where it would
// be inserted. Fibonacci hashing spreads the line-granular addresses,
// which cluster in a few regions, over the whole index.
func (t *LineTable) find(addr uint64) int {
	mask := len(t.slots) - 1
	i := int((addr * 0x9e3779b97f4a7c15) >> t.shift)
	for {
		s := &t.slots[i]
		if s.id1 == 0 || s.addr == addr {
			return i
		}
		i = (i + 1) & mask
	}
}

// insert interns addr, known to be absent, into the empty slot i.
func (t *LineTable) insert(i int, addr uint64) int32 {
	id := int32(len(t.addrs))
	t.addrs = append(t.addrs, addr)
	t.slots[i] = lineSlot{addr: addr, id1: id + 1}
	if 2*len(t.addrs) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return id
}

// ID returns the dense ID of addr, interning it on first touch.
func (t *LineTable) ID(addr uint64) int32 {
	i := t.find(addr)
	if id1 := t.slots[i].id1; id1 != 0 {
		return id1 - 1
	}
	return t.insert(i, addr)
}

// Lookup returns the ID of addr without interning.
func (t *LineTable) Lookup(addr uint64) (int32, bool) {
	id1 := t.slots[t.find(addr)].id1
	return id1 - 1, id1 != 0
}

// Addr returns the address interned as id.
func (t *LineTable) Addr(id int32) uint64 { return t.addrs[id] }

// Len returns the number of interned addresses.
func (t *LineTable) Len() int { return len(t.addrs) }

// Addrs returns the interned addresses in ID order. Shared storage:
// callers must not mutate or retain across interning.
func (t *LineTable) Addrs() []uint64 { return t.addrs }

// AdoptPrefix makes the table's first len(addrs) IDs map exactly the
// given addresses, interning any the table does not know yet. It errors
// if an existing ID already maps a different address — the caller is
// restoring a snapshot into a machine with an incompatible interning
// history — or if addrs names one address twice, which would map two
// IDs onto one line. On error the table is left as it was. A table
// longer than addrs is fine: IDs are append-only, so the captured
// prefix is still intact.
func (t *LineTable) AdoptPrefix(addrs []uint64) error {
	n := len(t.addrs)
	for i, a := range addrs {
		if i < n {
			if t.addrs[i] != a {
				return fmt.Errorf("mem: line table id %d maps %#x, snapshot expects %#x", i, t.addrs[i], a)
			}
			continue
		}
		j := t.find(a)
		if id1 := t.slots[j].id1; id1 != 0 {
			t.truncate(n)
			return fmt.Errorf("mem: line table lists %#x twice (ids %d and %d)", a, id1-1, i)
		}
		t.insert(j, a)
	}
	return nil
}

// truncate drops every ID from n on, rebuilding the index (the rare
// path of a rejected AdoptPrefix).
func (t *LineTable) truncate(n int) {
	t.addrs = t.addrs[:n]
	t.resize(len(t.slots))
}
