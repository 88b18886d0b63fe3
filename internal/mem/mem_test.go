package mem

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func newRig(channels, banks int) (*sim.Engine, *stats.Stats, *Controller) {
	eng := sim.NewEngine()
	st := stats.New(8)
	m := NewMemory()
	d := NewDRAM(eng, st, channels)
	l := NewLog(st, banks)
	return eng, st, NewController(eng, st, m, d, l)
}

func TestMemoryBasics(t *testing.T) {
	m := NewMemory()
	if m.Read(5) != (Word{}) {
		t.Fatal("absent line should read zero")
	}
	m.Write(5, Word{Val: 9})
	if m.Read(5).Val != 9 || m.Len() != 1 {
		t.Fatal("write/read failed")
	}
	m.Write(5, Word{}) // writing zero reclaims the line
	if m.Len() != 0 {
		t.Fatal("zero write should delete")
	}
	m.Write(1, Word{Val: 1, Poison: true})
	if a, ok := m.AnyPoison(); !ok || a != 1 {
		t.Fatal("AnyPoison missed a poisoned line")
	}
	snap := m.Snapshot()
	m.Write(1, Word{Val: 2})
	if snap[1].Val != 1 || !snap[1].Poison {
		t.Fatal("snapshot aliased memory")
	}
	n := 0
	m.ForEach(func(addr uint64, w Word) { n++ })
	if n != 1 {
		t.Fatal("ForEach visited wrong count")
	}
}

func TestDRAMUnloadedLatencyNearPaper(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.New(1)
	d := NewDRAM(eng, st, 2)
	lat := d.ReadLatency(100)
	// Paper: ~200-cycle unloaded round trip to main memory.
	if lat < 150 || lat > 250 {
		t.Fatalf("unloaded read latency = %d, want ~200", lat)
	}
	if st.MemReads != 1 {
		t.Fatal("read not accounted")
	}
}

func TestDRAMQueueing(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.New(1)
	d := NewDRAM(eng, st, 1)
	d1 := d.Occupy(0, 10)
	if d1 != 10*d.Service {
		t.Fatalf("first occupy done at %d, want %d", d1, 10*d.Service)
	}
	d2 := d.Occupy(0, 1)
	if d2 != d1+d.Service {
		t.Fatalf("queued occupy done at %d, want %d", d2, d1+d.Service)
	}
	if st.MemQueueCycles != uint64(d1) {
		t.Fatalf("queue cycles = %d, want %d", st.MemQueueCycles, d1)
	}
	if d.QueueDepth(0) != d2 {
		t.Fatalf("queue depth = %d, want %d", d.QueueDepth(0), d2)
	}
}

func TestDRAMChannelsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.New(1)
	d := NewDRAM(eng, st, 2)
	// Find two lines on different channels.
	a := uint64(0)
	var b uint64
	found := false
	for cand := uint64(1); cand < 100; cand++ {
		if d.channel(a) != d.channel(cand) {
			b = cand
			found = true
			break
		}
	}
	if !found {
		t.Fatal("could not find lines on distinct channels")
	}
	d.Occupy(a, 100)
	if got := d.Occupy(b, 1); got != d.Service {
		t.Fatalf("independent channel was delayed: done at %d", got)
	}
}

func TestWritebackLogsOldValue(t *testing.T) {
	_, st, c := newRig(2, 4)
	c.Memory().Write(7, Word{Val: 1})
	c.Writeback(0, 0, 7, Word{Val: 2})
	if c.Memory().Read(7).Val != 2 {
		t.Fatal("writeback did not update memory")
	}
	es := c.Log().EntriesFor(0)
	if len(es) != 1 || es[0].Old.Val != 1 || es[0].Line != 7 || es[0].Epoch != 0 {
		t.Fatalf("log entry wrong: %+v", es)
	}
	if st.LogEntries != 1 || st.MemWrites != 1 {
		t.Fatal("stats not accounted")
	}
}

func TestFirstWritebackPerIntervalOptimization(t *testing.T) {
	_, st, c := newRig(2, 4)
	// Same pid, same epoch: second writeback of the line is not logged.
	c.Writeback(0, 3, 7, Word{Val: 1})
	c.Writeback(0, 3, 7, Word{Val: 2})
	if st.LogEntries != 1 {
		t.Fatalf("LogEntries = %d, want 1 (first-WB optimisation)", st.LogEntries)
	}
	// Different epoch: must log again.
	c.Writeback(0, 4, 7, Word{Val: 3})
	// Different pid, same epoch number: must log again (the epoch
	// counter is per-processor; sharing a number means nothing).
	c.Writeback(1, 4, 7, Word{Val: 4})
	if st.LogEntries != 3 {
		t.Fatalf("LogEntries = %d, want 3", st.LogEntries)
	}
}

func TestAlwaysLogMode(t *testing.T) {
	_, st, c := newRig(2, 4)
	c.Log().AlwaysLog = true
	c.Writeback(0, 0, 7, Word{Val: 1})
	c.Writeback(0, 0, 7, Word{Val: 2})
	if st.LogEntries != 2 {
		t.Fatalf("AlwaysLog: LogEntries = %d, want 2", st.LogEntries)
	}
}

// Single-processor rollback: writing across epochs and rolling back to
// epoch k must restore exactly the memory image at the k-th checkpoint.
func TestRollbackRestoresEpochBoundary(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.New(1)
	m := NewMemory()
	c := NewController(eng, st, m, NewDRAM(eng, st, 2), NewLog(st, 4))

	rng := sim.NewRNG(11)
	snaps := make([]map[uint64]Word, 0, 5)
	for epoch := uint64(0); epoch < 4; epoch++ {
		snaps = append(snaps, m.Snapshot()) // state at the checkpoint opening this epoch
		for i := 0; i < 200; i++ {
			line := uint64(rng.Intn(40))
			c.Writeback(0, epoch, line, Word{Val: rng.Next()})
		}
		c.Log().Stub(eng.Now())
	}
	for target := uint64(3); ; target-- {
		// Roll processor 0 back to the checkpoint that opened `target`.
		want := snaps[target]
		n, _ := c.Restore(map[int]uint64{0: target})
		if n == 0 {
			t.Fatalf("rollback to %d restored nothing", target)
		}
		got := m.Snapshot()
		if !sameState(got, want) {
			t.Fatalf("rollback to epoch %d: memory mismatch", target)
		}
		c.Log().CheckInvariants()
		if target == 0 {
			break
		}
	}
	if m.Len() != 0 {
		t.Fatal("full rollback should restore the initial empty memory")
	}
}

// Two processors interleaving writes to the same line: rolling back the
// closed set {A, B} must unwind in reverse global order (the WW case of
// DESIGN.md).
func TestRollbackInterleavedWWDependence(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.New(2)
	m := NewMemory()
	c := NewController(eng, st, m, NewDRAM(eng, st, 2), NewLog(st, 4))

	m.Write(9, Word{Val: 5})
	c.Writeback(0, 1, 9, Word{Val: 6}) // A logs old=5
	c.Writeback(1, 1, 9, Word{Val: 7}) // B logs old=6
	c.Writeback(0, 1, 9, Word{Val: 8}) // A again: logged (last key now B's)
	// Roll both back to epoch 1: line must return to 5.
	c.Restore(map[int]uint64{0: 1, 1: 1})
	if got := m.Read(9).Val; got != 5 {
		t.Fatalf("line = %d after joint rollback, want 5", got)
	}
}

// Rolling back only one of two processors with disjoint write sets must
// leave the other's data untouched.
func TestPartialRollbackLeavesOthersAlone(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.New(2)
	m := NewMemory()
	c := NewController(eng, st, m, NewDRAM(eng, st, 2), NewLog(st, 4))

	c.Writeback(0, 0, 1, Word{Val: 10})
	c.Writeback(1, 0, 2, Word{Val: 20})
	c.Writeback(0, 1, 1, Word{Val: 11})
	c.Writeback(1, 1, 2, Word{Val: 21})
	c.Restore(map[int]uint64{0: 1}) // roll A to its epoch-1 checkpoint
	if m.Read(1).Val != 10 {
		t.Fatalf("A's line = %d, want 10", m.Read(1).Val)
	}
	if m.Read(2).Val != 21 {
		t.Fatalf("B's line = %d, want 21 (untouched)", m.Read(2).Val)
	}
}

// After a rollback removes entries, re-executed writebacks must log
// afresh (the first-writeback key is invalidated).
func TestRollbackInvalidatesFirstWBKey(t *testing.T) {
	_, st, c := newRig(2, 4)
	c.Writeback(0, 0, 7, Word{Val: 1})
	c.Restore(map[int]uint64{0: 0})
	c.Writeback(0, 0, 7, Word{Val: 1}) // redo of the same interval
	if st.LogEntries != 2 {
		t.Fatalf("LogEntries = %d, want 2 (redo must re-log)", st.LogEntries)
	}
}

func TestTruncate(t *testing.T) {
	_, _, c := newRig(2, 4)
	c.Writeback(0, 0, 1, Word{Val: 1})
	c.Writeback(0, 1, 2, Word{Val: 2})
	c.Writeback(1, 0, 3, Word{Val: 3})
	dropped := c.Log().Truncate(map[int]uint64{0: 1})
	if dropped != 1 || c.Log().Len() != 2 {
		t.Fatalf("Truncate dropped %d (len %d), want 1 (len 2)", dropped, c.Log().Len())
	}
	// Processor 1 absent from the safe map: keeps everything.
	if len(c.Log().EntriesFor(1)) != 1 {
		t.Fatal("Truncate touched a processor without a safe epoch")
	}
	c.Log().CheckInvariants()
}

func TestLogHighWaterResetsAtStub(t *testing.T) {
	_, st, c := newRig(2, 4)
	for i := 0; i < 10; i++ {
		c.Writeback(0, 0, uint64(i), Word{Val: 1})
	}
	c.Log().Stub(0)
	for i := 0; i < 3; i++ {
		c.Writeback(0, 1, uint64(100+i), Word{Val: 1})
	}
	if st.LogHighWaterBytes != 10*EntryBytes {
		t.Fatalf("high water = %d, want %d", st.LogHighWaterBytes, 10*EntryBytes)
	}
}

func TestLogRegisters(t *testing.T) {
	eng, st, c := newRig(2, 4)
	before := st.LogBytes
	done := c.LogRegisters(3)
	if st.LogBytes <= before {
		t.Fatal("register logging not accounted")
	}
	if done <= eng.Now() {
		t.Fatal("register logging should occupy a channel")
	}
}

func sameState(a, b map[uint64]Word) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestRollbackMatchesSortedOrder checks Rollback's restore order
// against every undone entry of the target set, collected from the
// per-processor lists and sorted by descending Seq. The generated logs
// tag each writeback with a random epoch, so a processor's list is not
// epoch-monotone and its undone entries are scattered through it, and
// one log takes many rollbacks, so the reused undo scratch is
// exercised.
func TestRollbackMatchesSortedOrder(t *testing.T) {
	type undone struct {
		line uint64
		old  Word
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		procs := 1 + rng.Intn(8)
		l := NewLog(stats.New(procs), 4)
		l.AlwaysLog = seed%2 == 0
		for step := 0; step < 60; step++ {
			for i := rng.Intn(200); i > 0; i-- {
				l.Append(rng.Intn(procs), uint64(rng.Intn(6)), uint64(rng.Intn(64)),
					Word{Val: rng.Next()}, sim.Cycle(step))
			}
			target := make(map[int]uint64)
			for pid := 0; pid < procs+1; pid++ { // procs: a processor with no list
				if rng.Intn(3) > 0 {
					target[pid] = uint64(rng.Intn(6))
				}
			}

			var want []Entry
			for pid, ep := range target {
				if pid < len(l.perPID) {
					for _, e := range l.perPID[pid] {
						if e.Epoch >= ep {
							want = append(want, e)
						}
					}
				}
			}
			slices.SortFunc(want, func(a, b Entry) int { return cmp.Compare(b.Seq, a.Seq) })
			before := l.Len()

			var got []undone
			n := l.Rollback(target, func(line uint64, old Word) { got = append(got, undone{line, old}) })
			if int(n) != len(want) || len(got) != len(want) || l.Len() != before-len(want) {
				t.Fatalf("seed %d step %d: restored %d (%d calls), want %d; log %d -> %d",
					seed, step, n, len(got), len(want), before, l.Len())
			}
			for i, e := range want {
				if got[i] != (undone{e.Line, e.Old}) {
					t.Fatalf("seed %d step %d: restore %d is line %d, want seq %d line %d",
						seed, step, i, got[i].line, e.Seq, e.Line)
				}
			}
			for pid, ep := range target {
				if pid < len(l.perPID) {
					for _, e := range l.perPID[pid] {
						if e.Epoch >= ep {
							t.Fatalf("seed %d step %d: entry seq %d survived the rollback", seed, step, e.Seq)
						}
					}
				}
			}
			l.CheckInvariants()
		}
	}
}
