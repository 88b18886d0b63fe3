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
