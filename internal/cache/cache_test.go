package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestGeometry(t *testing.T) {
	c := New(256*1024, 8, 32) // the paper's L2
	if c.Capacity() != 8192 {
		t.Fatalf("capacity = %d lines, want 8192", c.Capacity())
	}
	if c.Sets() != 1024 || c.Ways() != 8 {
		t.Fatalf("geometry = %dx%d", c.Sets(), c.Ways())
	}
	// Non-power-of-two set counts round down.
	c2 := New(3*32*48, 3, 32)
	if c2.Sets() != 32 {
		t.Fatalf("sets = %d, want 32", c2.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(16, 4, 32)
}

func TestInsertLookup(t *testing.T) {
	c := New(4*32*2, 2, 32) // 4 sets, 2 ways
	l, _, ev := c.Insert(5)
	if ev {
		t.Fatal("insert into empty cache evicted")
	}
	l.State = Modified
	l.Dirty = true
	l.Data = mem.Word{Val: 42}
	got := c.Lookup(5)
	if got == nil || got.Data.Val != 42 || !got.Dirty {
		t.Fatal("lookup after insert failed")
	}
	if c.Lookup(6) != nil {
		t.Fatal("phantom hit")
	}
	// Re-inserting the same address returns the same line, no eviction.
	l2, _, ev2 := c.Insert(5)
	if ev2 || l2.Data.Val != 42 {
		t.Fatal("re-insert should find existing line")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state names wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still render")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1*32*2, 2, 32) // 1 set, 2 ways
	a, _, _ := c.Insert(0)
	a.State = Shared
	b, _, _ := c.Insert(8) // same set (any addr: 1 set)
	b.State = Shared
	c.Lookup(0) // make 0 most recently used
	l, victim, ev := c.Insert(16)
	l.State = Shared
	if !ev || victim.Addr != 8 {
		t.Fatalf("evicted %v (ev=%v), want addr 8", victim.Addr, ev)
	}
	if c.Peek(0) == nil || c.Peek(8) != nil {
		t.Fatal("LRU victim selection wrong")
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := New(1*32*4, 4, 32)
	for i := uint64(0); i < 4; i++ {
		l, _, _ := c.Insert(i)
		l.State = Shared
	}
	c.Invalidate(2)
	l, _, ev := c.Insert(9)
	l.State = Shared
	if ev {
		t.Fatal("insert with an invalid way available must not evict")
	}
	if c.Peek(0) == nil || c.Peek(1) == nil || c.Peek(3) == nil {
		t.Fatal("insert replaced a valid line instead of the invalid way")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4*32*2, 2, 32)
	l, _, _ := c.Insert(7)
	l.State = Modified
	l.Dirty = true
	l.Data = mem.Word{Val: 3}
	old, ok := c.Invalidate(7)
	if !ok || old.Data.Val != 3 || !old.Dirty {
		t.Fatal("Invalidate did not return prior contents")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Fatal("double invalidate reported success")
	}
}

func TestInvalidateAllAndCounts(t *testing.T) {
	c := New(8*32*2, 2, 32)
	for i := uint64(0); i < 10; i++ {
		l, _, _ := c.Insert(i)
		l.State = Modified
		l.Dirty = i%2 == 0
		l.Delayed = i%3 == 0
	}
	if c.CountValid() != 10 {
		t.Fatalf("valid = %d, want 10", c.CountValid())
	}
	if c.CountDirty() != 5 {
		t.Fatalf("dirty = %d, want 5", c.CountDirty())
	}
	if c.CountDelayed() != 4 {
		t.Fatalf("delayed = %d, want 4", c.CountDelayed())
	}
	seen := 0
	c.ForEach(func(*Line) { seen++ })
	c.InvalidateAll()
	if seen != 10 || c.CountValid() != 0 {
		t.Fatal("InvalidateAll incomplete")
	}
}

// Property: under random fills, a cache never holds two copies of one
// address, never exceeds its capacity per set, and Lookup agrees with
// the most recent Insert/Invalidate for addresses that stayed resident.
func TestQuickConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(4*32*2, 2, 32)
		resident := map[uint64]uint64{} // addr -> value, for lines never evicted
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(24))
			switch rng.Intn(3) {
			case 0:
				l, victim, ev := c.Insert(addr)
				l.State = Modified
				l.Data = mem.Word{Val: uint64(i)}
				resident[addr] = uint64(i)
				if ev {
					delete(resident, victim.Addr)
				}
			case 1:
				c.Invalidate(addr)
				delete(resident, addr)
			case 2:
				if want, ok := resident[addr]; ok {
					got := c.Lookup(addr)
					if got == nil || got.Data.Val != want {
						return false
					}
				}
			}
			// No duplicate copies of any address.
			counts := map[uint64]int{}
			c.ForEach(func(l *Line) { counts[l.Addr]++ })
			for _, n := range counts {
				if n > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheOccupancy runs a seeded random mix of Insert, Lookup (with
// the in-place edits callers make), Invalidate, InvalidateAll, Save
// and Load against a full scan of the line array. After every op a way
// is occupied exactly when it is not the zero Line, ForEach visits the
// valid ways in way order, and the counts match the scan; Load of a
// Save reproduces the saved lines and LRU clock exactly. The geometry,
// 32 sets of 3 ways, ends the bitmap mid-word.
func TestCacheOccupancy(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(32*3*32, 3, 32)
		var snap Snapshot
		var saved []Line
		var savedTick uint64
		c.Save(&snap)
		saved = append(saved[:0], c.lines...)
		for step := 0; step < 2000; step++ {
			addr := uint64(rng.Intn(4 * c.Capacity()))
			switch op := rng.Intn(100); {
			case op < 45:
				l, _, _ := c.Insert(addr)
				l.State = State(1 + rng.Intn(3))
				l.Dirty = l.State == Modified
				l.Epoch = uint64(rng.Intn(4))
				l.Data = mem.Word{Val: rng.Uint64(), Poison: rng.Intn(8) == 0}
			case op < 65:
				if l := c.Lookup(addr); l != nil && l.Dirty {
					l.Delayed = rng.Intn(2) == 0
				}
			case op < 85:
				c.Invalidate(addr)
			case op < 87:
				c.InvalidateAll()
			case op < 94:
				c.Save(&snap)
				saved, savedTick = append(saved[:0], c.lines...), c.lruTick
			default:
				c.Load(&snap)
				for i := range saved {
					if c.lines[i] != saved[i] {
						t.Fatalf("seed %d step %d: way %d loads as %+v, saved %+v", seed, step, i, c.lines[i], saved[i])
					}
				}
				if c.lruTick != savedTick {
					t.Fatalf("seed %d step %d: LRU clock %d, saved %d", seed, step, c.lruTick, savedTick)
				}
			}
			var want []*Line
			valid, dirty, delayed := 0, 0, 0
			for i := range c.lines {
				l := &c.lines[i]
				if occ := c.occ[i>>6]>>(i&63)&1 != 0; occ != (*l != Line{}) {
					t.Fatalf("seed %d step %d: way %d occupied=%v holding %+v", seed, step, i, occ, *l)
				}
				if l.State != Invalid {
					want = append(want, l)
					valid++
					if l.Dirty {
						dirty++
					}
					if l.Delayed {
						delayed++
					}
				}
			}
			var got []*Line
			c.ForEach(func(l *Line) { got = append(got, l) })
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: ForEach visited %d lines, scan finds %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: ForEach visit %d out of way order", seed, step, i)
				}
			}
			if c.CountValid() != valid || c.CountDirty() != dirty || c.CountDelayed() != delayed {
				t.Fatalf("seed %d step %d: counts %d/%d/%d, scan %d/%d/%d", seed, step,
					c.CountValid(), c.CountDirty(), c.CountDelayed(), valid, dirty, delayed)
			}
		}
	}
}

// BenchmarkCacheLookup measures one access as a processor makes it:
// a Lookup, and an Insert when it misses. The geometries are the
// paper's L1 and L2, and the addresses are drawn from twice each
// cache's capacity, so about half the accesses miss once it is warm.
func BenchmarkCacheLookup(b *testing.B) {
	for _, g := range []struct {
		name              string
		size, ways, lineB int
	}{{"L1", 16 * 1024, 4, 32}, {"L2", 256 * 1024, 8, 32}} {
		b.Run(g.name, func(b *testing.B) {
			c := New(g.size, g.ways, g.lineB)
			rng := rand.New(rand.NewSource(1))
			addrs := make([]uint64, 1<<16)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(2 * c.Capacity()))
			}
			for _, a := range addrs {
				if c.Lookup(a) == nil {
					c.Insert(a)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a := addrs[i&(len(addrs)-1)]; c.Lookup(a) == nil {
					c.Insert(a)
				}
			}
		})
	}
}

// BenchmarkCacheRestore times the whole-cache walks a trial restore
// and a rollback make on the paper's L2 (256 KB, 8-way, 32-byte
// lines: 8,192 ways) holding 608 lines, the mean per-processor
// occupancy of a warm FFT/16 quick machine (9,723 of its 131,072 L2
// ways):
//
//   - save: Save into a reused snapshot;
//   - load: Load of that snapshot into a cache holding the same image,
//     as a trial restore finds it;
//   - invalidate_all: InvalidateAll after an untimed Load.
func BenchmarkCacheRestore(b *testing.B) {
	const occupied = 608
	c := New(256*1024, 8, 32)
	rng := rand.New(rand.NewSource(1))
	for c.CountValid() < occupied {
		l, _, _ := c.Insert(uint64(rng.Intn(1 << 20)))
		l.State = Exclusive
		l.Data = mem.Word{Val: rng.Uint64()}
	}
	var s Snapshot
	c.Save(&s)
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Save(&s)
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Load(&s)
		}
	})
	b.Run("invalidate_all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c.Load(&s)
			b.StartTimer()
			c.InvalidateAll()
		}
	})
}
