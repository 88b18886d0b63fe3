// Package cache models the private L1/L2 hierarchy of each Rebound
// tile (Fig 4.3a): set-associative, LRU, with per-line MESI state plus
// the two bits Rebound adds at the L2 — Dirty (write-back) and Delayed
// (a dirty line belonging to the previous checkpoint interval whose
// writeback is still draining in the background, §4.1). Each dirty line
// also carries the checkpoint epoch in which it was dirtied, which the
// memory controller needs to tag undo-log entries.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is a MESI coherence state.
type State uint8

// MESI states. A Modified line is always Dirty; an Exclusive line is a
// clean owned copy (checkpoint writebacks leave lines in this state).
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String renders the state letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line.
type Line struct {
	Addr  uint64
	State State
	// Dirty marks data newer than memory (only meaningful in the L2;
	// the L1 is write-through and never dirty).
	Dirty bool
	// Delayed marks a dirty line whose checkpoint writeback is pending
	// in the background (§4.1).
	Delayed bool
	// Epoch is the checkpoint interval in which the line was dirtied.
	Epoch uint64
	Data  mem.Word
	// LRU is the cache's clock at the line's last touch. It drives
	// eviction order, so a snapshot must carry it.
	LRU uint64
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.State != Invalid }

// Cache is a set-associative, LRU cache. Addresses are line-granular.
// Lines are stored in one flat slice (set i occupies lines[i*ways :
// (i+1)*ways]) for locality and a single allocation.
//
// occ has one bit per way, set exactly when the way is not the zero
// Line: Insert sets it and Invalidate clears it (callers mutate lines
// in place but never zero one). The whole-cache walks (InvalidateAll,
// ForEach, Save, Load) visit only the occupied ways, in increasing way
// order, so their cost follows what the cache holds, not its capacity.
type Cache struct {
	lines   []Line
	occ     []uint64
	nsets   int
	ways    int
	lruTick uint64
}

// New builds a cache of sizeBytes capacity with the given associativity
// and line size. nsets is forced to a power of two.
func New(sizeBytes, ways, lineBytes int) *Cache {
	if ways < 1 || lineBytes < 1 || sizeBytes < ways*lineBytes {
		panic("cache: bad geometry")
	}
	nsets := sizeBytes / (ways * lineBytes)
	// Round down to a power of two for cheap indexing.
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	nsets = p
	n := nsets * ways
	return &Cache{lines: make([]Line, n), occ: make([]uint64, (n+63)/64), nsets: nsets, ways: ways}
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the number of lines the cache can hold.
func (c *Cache) Capacity() int { return c.nsets * c.ways }

// base returns the index of the first way of addr's set.
func (c *Cache) base(addr uint64) int { return (int(addr) & (c.nsets - 1)) * c.ways }

func (c *Cache) set(addr uint64) []Line {
	b := c.base(addr)
	return c.lines[b : b+c.ways]
}

// Lookup returns the line holding addr, touching LRU, or nil on miss.
func (c *Cache) Lookup(addr uint64) *Line {
	s := c.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Addr == addr {
			c.lruTick++
			s[i].LRU = c.lruTick
			return &s[i]
		}
	}
	return nil
}

// Peek is Lookup without the LRU touch.
func (c *Cache) Peek(addr uint64) *Line {
	s := c.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Addr == addr {
			return &s[i]
		}
	}
	return nil
}

// Insert allocates a line for addr and returns it, together with the
// victim's previous contents if a valid line had to be evicted. The
// caller is responsible for writing back a dirty victim and for
// initialising the returned line's fields.
func (c *Cache) Insert(addr uint64) (line *Line, victim Line, evicted bool) {
	base := c.base(addr)
	s := c.lines[base : base+c.ways]
	// Reuse an existing copy or an invalid way if possible.
	vi := -1
	var oldest uint64 = ^uint64(0)
	for i := range s {
		if s[i].State != Invalid && s[i].Addr == addr {
			c.lruTick++
			s[i].LRU = c.lruTick
			return &s[i], Line{}, false
		}
		if s[i].State == Invalid {
			if vi == -1 || s[vi].State != Invalid {
				vi = i
				oldest = 0
			}
		} else if vi == -1 || (s[vi].State != Invalid && s[i].LRU < oldest) {
			vi = i
			oldest = s[i].LRU
		}
	}
	v := s[vi]
	ev := v.State != Invalid
	c.lruTick++
	s[vi] = Line{Addr: addr, LRU: c.lruTick}
	w := base + vi
	c.occ[w>>6] |= 1 << (w & 63)
	return &s[vi], v, ev
}

// Invalidate removes addr and returns the line's prior contents.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	base := c.base(addr)
	s := c.lines[base : base+c.ways]
	for i := range s {
		if s[i].State != Invalid && s[i].Addr == addr {
			old := s[i]
			s[i] = Line{}
			w := base + i
			c.occ[w>>6] &^= 1 << (w & 63)
			return old, true
		}
	}
	return Line{}, false
}

// InvalidateAll wipes the cache. An invalid line is always the zero
// Line, so this clears every occupied way. Used on rollback (§3.3.5:
// rolled-back caches are invalidated; their dirty data is abandoned,
// the log restores memory).
func (c *Cache) InvalidateAll() {
	for wi, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			c.lines[wi<<6+bits.TrailingZeros64(w)] = Line{}
		}
		c.occ[wi] = 0
	}
}

// ForEach visits every valid line in increasing way order. The *Line
// may be mutated, and fn may insert or invalidate lines: each bitmap
// word is re-read after every visit, so a way fn fills or empties
// further on is seen as it stands when the walk reaches it.
func (c *Cache) ForEach(fn func(*Line)) {
	for wi := range c.occ {
		for w := c.occ[wi]; w != 0; {
			b := bits.TrailingZeros64(w)
			if l := &c.lines[wi<<6+b]; l.State != Invalid {
				fn(l)
			}
			w = c.occ[wi] &^ (2<<b - 1)
		}
	}
}

// Snapshot is a saved cache image: the occupied ways as parallel
// (way index, line) arrays in increasing way order, the cache's way
// count and its LRU clock. Every way not listed is the zero Line. Save
// reuses the snapshot's backing storage across captures.
type Snapshot struct {
	Index    []int32
	Lines    []Line
	Capacity int
	LruTick  uint64
}

// Save copies the cache contents into s, reusing its storage.
func (c *Cache) Save(s *Snapshot) {
	s.Index, s.Lines = s.Index[:0], s.Lines[:0]
	for wi, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			s.Index = append(s.Index, int32(i))
			s.Lines = append(s.Lines, c.lines[i])
		}
	}
	s.Capacity = len(c.lines)
	s.LruTick = c.lruTick
}

// CheckSnapshot reports whether s fits c's geometry, Load's
// precondition: the way count matches, and the listed ways increase
// and stay below it.
func (c *Cache) CheckSnapshot(s *Snapshot) error {
	if s.Capacity != len(c.lines) {
		return fmt.Errorf("cache: snapshot holds %d ways, cache has %d", s.Capacity, len(c.lines))
	}
	if len(s.Index) != len(s.Lines) {
		return fmt.Errorf("cache: snapshot lists %d way indices for %d lines", len(s.Index), len(s.Lines))
	}
	prev := int32(-1)
	for _, i := range s.Index {
		if i <= prev || int(i) >= len(c.lines) {
			return fmt.Errorf("cache: snapshot way index %d after %d, want increasing and below %d", i, prev, len(c.lines))
		}
		prev = i
	}
	return nil
}

// Load restores the cache from s. The geometry must match the capture.
// It clears the ways the cache occupies and fills the ways s lists.
func (c *Cache) Load(s *Snapshot) {
	if err := c.CheckSnapshot(s); err != nil {
		panic(err)
	}
	c.InvalidateAll()
	for k, i := range s.Index {
		c.lines[i] = s.Lines[k]
		c.occ[i>>6] |= 1 << (i & 63)
	}
	c.lruTick = s.LruTick
}

// CountDirty returns the number of dirty lines.
func (c *Cache) CountDirty() int {
	n := 0
	c.ForEach(func(l *Line) {
		if l.Dirty {
			n++
		}
	})
	return n
}

// CountDelayed returns the number of lines with the Delayed bit set.
func (c *Cache) CountDelayed() int {
	n := 0
	c.ForEach(func(l *Line) {
		if l.Delayed {
			n++
		}
	})
	return n
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}
