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
type Cache struct {
	lines   []Line
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
	return &Cache{lines: make([]Line, nsets*ways), nsets: nsets, ways: ways}
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the number of lines the cache can hold.
func (c *Cache) Capacity() int { return c.nsets * c.ways }

func (c *Cache) set(addr uint64) []Line {
	si := int(addr) & (c.nsets - 1)
	return c.lines[si*c.ways : si*c.ways+c.ways]
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
	s := c.set(addr)
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
	return &s[vi], v, ev
}

// Invalidate removes addr and returns the line's prior contents.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	s := c.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Addr == addr {
			old := s[i]
			s[i] = Line{}
			return old, true
		}
	}
	return Line{}, false
}

// InvalidateAll wipes the cache. An invalid line is always the zero
// Line, so this clears every line. Used on rollback (§3.3.5:
// rolled-back caches are invalidated; their dirty data is abandoned,
// the log restores memory).
func (c *Cache) InvalidateAll() { clear(c.lines) }

// ForEach visits every valid line. The *Line may be mutated.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}

// Snapshot is a saved cache image: the full line array plus the LRU
// clock. Save reuses the snapshot's backing storage across captures.
type Snapshot struct {
	Lines   []Line
	LruTick uint64
}

// Save copies the cache contents into s, reusing s.Lines storage.
func (c *Cache) Save(s *Snapshot) {
	if cap(s.Lines) < len(c.lines) {
		s.Lines = make([]Line, len(c.lines))
	} else {
		s.Lines = s.Lines[:len(c.lines)]
	}
	copy(s.Lines, c.lines)
	s.LruTick = c.lruTick
}

// CheckSnapshot reports whether s fits c's geometry, Load's
// precondition.
func (c *Cache) CheckSnapshot(s *Snapshot) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache: snapshot holds %d lines, cache has %d", len(s.Lines), len(c.lines))
	}
	return nil
}

// Load restores the cache from s. The geometry must match the capture.
func (c *Cache) Load(s *Snapshot) {
	if err := c.CheckSnapshot(s); err != nil {
		panic(err)
	}
	copy(c.lines, s.Lines)
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
