package mem

import (
	"fmt"
	"testing"

	"repro/internal/cow"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fuzzLines is the number of lines a restore fuzz system pre-interns:
// 16 cow pages, so an 8-way split still gives every range whole pages.
const fuzzLines = 16 * cow.PageSize

// restoreSys is one memory + undo log pair. Every system shares one
// line table with all fuzzLines lines interned up front (line i has ID
// i), so the ops below only ever read it.
type restoreSys struct {
	mem *Memory
	log *Log
}

func newRestoreSys(tab *LineTable) *restoreSys {
	return &restoreSys{mem: NewMemoryWith(tab), log: NewLogWith(stats.New(4), 4, tab)}
}

func lineAddr(id int) uint64 { return uint64(id) * 32 }

// apply runs one 4-byte op: [opcode, id high, id low, arg]. ids at or
// past limit wrap below it, which is how the pre-capture phase stays
// inside a shorter prefix than later phases grow into.
func (s *restoreSys) apply(op []byte, limit int) {
	id := int32((int(op[1])<<8 | int(op[2])) % limit)
	arg := op[3]
	pid, epoch := int(arg%4), uint64(arg>>2)%4
	switch op[0] % 6 {
	case 0:
		s.mem.WriteID(id, Word{Val: uint64(arg) + 1, Poison: arg&0x80 != 0})
	case 1:
		s.mem.WriteID(id, Word{})
	case 2:
		s.log.AppendID(pid, epoch, id, lineAddr(int(id)), s.mem.ReadID(id), sim.Cycle(arg))
	case 3:
		s.log.Truncate(map[int]uint64{pid: epoch})
	case 4:
		s.log.Rollback(map[int]uint64{pid: epoch}, func(id int32, _ uint64, old Word) { s.mem.WriteID(id, old) })
	case 5:
		s.log.Stub(sim.Cycle(arg))
	}
}

// deltaLoad restores s from the capture the copy-on-write way, the
// memory split into k page-aligned ID ranges (the machine snapshot
// plane's split) loaded last range first, so no range may depend on
// another having run.
func (s *restoreSys) deltaLoad(ms *MemorySnapshot, ls *LogSnapshot, k int) {
	n := s.mem.LoadBegin(ms, true)
	per := ((n+cow.PageSize-1)/cow.PageSize + k - 1) / k * cow.PageSize
	for i := k - 1; i >= 0; i-- {
		s.mem.LoadRange(ms, min(i*per, n), min((i+1)*per, n))
	}
	s.mem.LoadEnd()
	s.log.LoadDelta(ls)
}

// state renders everything a restore must reproduce; %v prints nil
// and empty slices alike, so only contents are compared. With trim,
// trailing untouched defaults (no-entry keys, empty processor lists)
// are dropped: a restored log keeps the length it grew to, and its
// tail must read exactly as if it had never grown.
func (s *restoreSys) state(trim bool) string {
	m, l := s.mem, s.log
	keys, perPID, minEpoch := l.lastKey, l.perPID, l.minEpoch
	for trim && len(keys) > 0 && keys[len(keys)-1] == (logKey{pid: -1}) {
		keys = keys[:len(keys)-1]
	}
	for n := len(perPID); trim && n > 0 && len(perPID[n-1]) == 0 && minEpoch[n-1] == noEntries; n-- {
		perPID, minEpoch = perPID[:n-1], minEpoch[:n-1]
	}
	return fmt.Sprintf("words=%v nonzero=%d perPID=%v minEpoch=%v lastKey=%v total=%d seq=%d sinceStub=%d always=%t",
		m.words, m.nonzero, perPID, minEpoch, keys, l.total, l.nextSeq, l.sinceStub, l.AlwaysLog)
}

// diffAt fails t with the first difference between got and want.
func diffAt(t *testing.T, what, got, want string) {
	t.Helper()
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-150, 0)
	t.Fatalf("%s at byte %d:\n  got: …%.300s\n want: …%.300s", what, i, got[lo:], want[lo:])
}

// clean reports whether every dirty tracker of s is clear.
func (s *restoreSys) clean() bool {
	dirty := false
	s.mem.dirty.Pages(0, 1<<30, func(int, int) { dirty = true })
	s.log.lkDirty.Pages(0, 1<<30, func(int, int) { dirty = true })
	for _, d := range s.log.pidDirty {
		dirty = dirty || d
	}
	return !dirty
}

// restoreOps encodes ops for the fuzz seeds: each is {opcode, id, arg}.
func restoreOps(ops ...[3]int) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, byte(o[0]), byte(o[1]>>8), byte(o[1]), byte(o[2]))
	}
	return b
}

// FuzzLoadDeltaMatchesLoad is the copy-on-write restore's property:
// after any sequence of memory writes, log appends, truncations,
// rollbacks and stubs — including growth past the captured length — a
// delta restore whose memory copy is split into K ∈ {1, 2, 3, 8}
// page-aligned ranges leaves Memory and Log exactly as a full Load
// does, and marks them clean; and the full Load itself returns them to
// the captured state.
//
// Input layout: byte 0 picks the pre-capture ID limit, byte 1 the
// number of pre-capture ops, then those ops (4 bytes each); the rest
// is rounds of [op count][ops], each round followed by a restore of
// every system and a comparison.
func FuzzLoadDeltaMatchesLoad(f *testing.F) {
	// Pre-capture: 600 lines written (3 pages; K=2 splits at ID 512).
	// Then dirty runs on both sides of that boundary and of the page
	// boundaries at 256 and 768, growth to ID 3000 past the capture,
	// log traffic on boundary IDs, a rollback and a truncation.
	var pre [][3]int
	for id := 0; id < 600; id += 7 {
		pre = append(pre, [3]int{0, id, id % 200})
	}
	pre = append(pre, [3]int{0, 599, 9}, [3]int{2, 511, 1}, [3]int{2, 512, 5}, [3]int{5, 0, 0})
	straddle := restoreOps([3]int{0, 511, 3}, [3]int{0, 512, 4}, [3]int{1, 255, 0}, [3]int{0, 256, 6},
		[3]int{2, 767, 2}, [3]int{2, 768, 2}, [3]int{0, 3000, 7}, [3]int{2, 3000, 9})
	// Rolling back pid 1 from epoch 0 undoes the captured entries at
	// 511 and 512 and clears their first-writeback keys.
	truncRoll := restoreOps([3]int{4, 0, 1}, [3]int{3, 0, 2 | 2<<2}, [3]int{0, 513, 8}, [3]int{4, 0, 5})
	seed := append([]byte{2, byte(len(pre))}, restoreOps(pre...)...)
	seed = append(seed, byte(len(straddle)/4))
	seed = append(seed, straddle...)
	seed = append(seed, byte(len(truncRoll)/4))
	seed = append(seed, truncRoll...)
	f.Add(seed)
	f.Add(append([]byte{0, 0, 2}, restoreOps([3]int{0, fuzzLines - 1, 1}, [3]int{2, cow.PageSize, 3})...))
	f.Add([]byte{7, 1, 0, 0, 1, 1, 1, 5, 0, 15, 255, 9})

	tab := NewLineTable()
	for i := 0; i < fuzzLines; i++ {
		tab.ID(lineAddr(i))
	}
	ks := []int{1, 2, 3, 8}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		limit := cow.PageSize * (1 + int(data[0])%8)
		nPre := int(data[1])
		data = data[2:]
		// sys[0] is the full-Load reference; sys[1+i] restores by delta
		// with K = ks[i].
		sys := make([]*restoreSys, 1+len(ks))
		for i := range sys {
			sys[i] = newRestoreSys(tab)
		}
		for ; nPre > 0 && len(data) >= 4; nPre-- {
			for _, s := range sys {
				s.apply(data[:4], limit)
			}
			data = data[4:]
		}
		var ms MemorySnapshot
		var ls LogSnapshot
		sys[0].mem.Save(&ms)
		sys[0].log.Save(&ls)
		captured := sys[0].state(true)
		for _, s := range sys {
			s.mem.Load(&ms)
			s.log.Load(&ls)
		}
		for len(data) > 0 {
			nOps := int(data[0])
			data = data[1:]
			for ; nOps > 0 && len(data) >= 4; nOps-- {
				for _, s := range sys {
					s.apply(data[:4], fuzzLines)
				}
				data = data[4:]
			}
			sys[0].mem.Load(&ms)
			sys[0].log.Load(&ls)
			want := sys[0].state(false)
			if got := sys[0].state(true); got != captured {
				diffAt(t, "full Load differs from the captured state", got, captured)
			}
			if !sys[0].clean() {
				t.Fatal("full Load left dirty marks")
			}
			for i, k := range ks {
				s := sys[1+i]
				s.deltaLoad(&ms, &ls, k)
				if got := s.state(false); got != want {
					diffAt(t, fmt.Sprintf("K=%d delta restore differs from a full Load", k), got, want)
				}
				if !s.clean() {
					t.Fatalf("K=%d delta restore left dirty marks", k)
				}
			}
		}
	})
}
