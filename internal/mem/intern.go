package mem

import "fmt"

// LineTable interns line addresses into small dense IDs. One table is
// shared per machine by the memory, the undo log and the coherence
// directory, so the per-line state of all three lives in flat slices
// indexed by the same ID: a transaction pays one hash lookup (the
// intern) instead of one map probe per structure. Line address spaces
// are small and fixed per workload profile, so the table stops growing
// after warm-up and the steady-state path is allocation-free.
type LineTable struct {
	ids   map[uint64]int32
	addrs []uint64
}

// NewLineTable returns an empty table.
func NewLineTable() *LineTable {
	return &LineTable{ids: make(map[uint64]int32, 1024)}
}

// ID returns the dense ID of addr, interning it on first touch.
func (t *LineTable) ID(addr uint64) int32 {
	if id, ok := t.ids[addr]; ok {
		return id
	}
	id := int32(len(t.addrs))
	t.ids[addr] = id
	t.addrs = append(t.addrs, addr)
	return id
}

// Lookup returns the ID of addr without interning.
func (t *LineTable) Lookup(addr uint64) (int32, bool) {
	id, ok := t.ids[addr]
	return id, ok
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
// history. A table longer than addrs is fine: IDs are append-only, so
// the captured prefix is still intact.
func (t *LineTable) AdoptPrefix(addrs []uint64) error {
	n := len(t.addrs)
	for i, a := range addrs {
		if i < n {
			if t.addrs[i] != a {
				return fmt.Errorf("mem: line table id %d maps %#x, snapshot expects %#x", i, t.addrs[i], a)
			}
			continue
		}
		t.ids[a] = int32(i)
		t.addrs = append(t.addrs, a)
	}
	return nil
}
