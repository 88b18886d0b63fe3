package mem

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// refLog is the reference undo log the merging Rollback is checked
// against: one list of every live entry in Seq order, a first-writeback
// key per line address, and the sort-based rollback the log used
// before its per-processor runs were merged.
type refLog struct {
	entries   []Entry
	lastKey   map[uint64]logKey
	nextSeq   uint64
	alwaysLog bool
}

func (r *refLog) key(line uint64) logKey {
	if k, ok := r.lastKey[line]; ok {
		return k
	}
	return logKey{pid: -1}
}

func (r *refLog) append(pid int, epoch, line uint64, old Word, at sim.Cycle) {
	if k := r.key(line); !r.alwaysLog && k.pid == int32(pid) && k.epoch == epoch {
		return
	}
	r.nextSeq++
	r.entries = append(r.entries, Entry{Seq: r.nextSeq, PID: pid, Epoch: epoch, Line: line, Old: old, At: at})
	r.lastKey[line] = logKey{pid: int32(pid), epoch: epoch}
}

func (r *refLog) truncate(safe map[int]uint64) {
	r.entries = slices.DeleteFunc(r.entries, func(e Entry) bool {
		s, ok := safe[e.PID]
		return ok && e.Epoch < s
	})
}

// rollback collects the undone entries, sorts them newest-first and
// undoes them in that order, returning the restores it made.
func (r *refLog) rollback(target map[int]uint64) []Entry {
	var undo []Entry
	r.entries = slices.DeleteFunc(r.entries, func(e Entry) bool {
		ep, ok := target[e.PID]
		if ok && e.Epoch >= ep {
			undo = append(undo, e)
			return true
		}
		return false
	})
	slices.SortFunc(undo, func(a, b Entry) int { return cmp.Compare(b.Seq, a.Seq) })
	for _, e := range undo {
		if k := r.key(e.Line); k.pid == int32(e.PID) && k.epoch == e.Epoch {
			k.pid = -1
			r.lastKey[e.Line] = k
		}
	}
	return undo
}

// FuzzLogRollbackOrder drives a Log and the reference through the same
// appends (across processors and epochs), truncations and rollbacks of
// processor sets, and after every rollback compares the restore
// callback's sequence (line ID, line, old value), each processor's
// surviving list and every line's first-writeback key.
func FuzzLogRollbackOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	seed := make([]byte, 1+3*600)
	rng := sim.NewRNG(7)
	for i := range seed {
		seed[i] = byte(rng.Next())
	}
	f.Add(seed)
	seed[0] = 1 // the same ops with AlwaysLog on
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const procs, lines, epochs = 5, 40, 6
		if len(data) == 0 {
			return
		}
		tab := NewLineTable()
		for i := 0; i < lines; i++ {
			tab.ID(uint64(i) * 32) // line i has ID i
		}
		l := NewLogWith(stats.New(procs), 4, tab)
		ref := &refLog{lastKey: map[uint64]logKey{}}
		l.AlwaysLog, ref.alwaysLog = data[0]&1 != 0, data[0]&1 != 0
		data = data[1:]
		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			op, a, b := data[0], data[1], data[2]
			// A set of processors, one of them past the log's lists,
			// each with its own epoch.
			set := func() map[int]uint64 {
				m := map[int]uint64{}
				for pid := 0; pid <= procs; pid++ {
					if a>>pid&1 != 0 {
						m[pid] = uint64(int(b)+pid) % epochs
					}
				}
				return m
			}
			switch op % 8 {
			default: // appends are most of the ops, as in a trial
				pid, epoch := int(a)%procs, uint64(a>>4)%epochs
				line, old := uint64(b%lines)*32, Word{Val: uint64(op) << 8, Poison: b&0x80 != 0}
				l.Append(pid, epoch, line, old, sim.Cycle(step))
				ref.append(pid, epoch, line, old, sim.Cycle(step))
			case 5:
				safe := set()
				l.Truncate(safe)
				ref.truncate(safe)
			case 6, 7:
				target := set()
				type restored struct {
					id   int32
					line uint64
					old  Word
				}
				var got []restored
				n := l.Rollback(target, func(id int32, line uint64, old Word) {
					got = append(got, restored{id, line, old})
				})
				want := ref.rollback(target)
				if int(n) != len(want) || len(got) != len(want) {
					t.Fatalf("step %d: rollback of %v restored %d (%d calls), want %d", step, target, n, len(got), len(want))
				}
				for i, e := range want {
					if w := (restored{int32(e.Line / 32), e.Line, e.Old}); got[i] != w {
						t.Fatalf("step %d: restore %d is %+v, want %+v (seq %d)", step, i, got[i], w, e.Seq)
					}
				}
			}
			if l.Len() != len(ref.entries) {
				t.Fatalf("step %d: log holds %d entries, reference %d", step, l.Len(), len(ref.entries))
			}
			var want [procs + 1][]Entry
			for _, e := range ref.entries {
				want[e.PID] = append(want[e.PID], e)
			}
			for pid := range want {
				if got := l.EntriesFor(pid); !slices.Equal(got, want[pid]) {
					t.Fatalf("step %d: pid %d holds %v, want %v", step, pid, got, want[pid])
				}
			}
			for id := 0; id < lines; id++ {
				got := logKey{pid: -1}
				if id < len(l.lastKey) {
					got = l.lastKey[id]
				}
				if want := ref.key(uint64(id) * 32); got != want {
					t.Fatalf("step %d: line %d key %+v, want %+v", step, id, got, want)
				}
			}
			l.CheckInvariants()
		}
	})
}

// BenchmarkLogRollback times one Rollback at the shape a campaign
// trial's recovery meets on FFT/16: 16 processors whose writebacks
// interleave one or two at a time, and a rollback set of 13 of them
// undoing about 1,000 entries. The log is reloaded from a capture,
// untimed, before each rollback.
func BenchmarkLogRollback(b *testing.B) {
	const procs, perEpoch, epochs = 16, 620, 6
	rng := sim.NewRNG(1)
	l := NewLog(stats.New(procs), 4)
	for epoch := uint64(0); epoch < epochs; epoch++ {
		for n := 0; n < perEpoch; {
			pid := rng.Intn(procs)
			for burst := 1 + rng.Intn(2); burst > 0; burst, n = burst-1, n+1 {
				l.Append(pid, epoch, uint64(rng.Intn(1<<13)), Word{Val: rng.Next()}, 0)
			}
		}
	}
	target := map[int]uint64{}
	for pid := 0; pid < 13; pid++ {
		target[pid] = epochs - 2
	}
	var snap LogSnapshot
	l.Save(&snap)
	var sink, undone uint64
	restore := func(id int32, line uint64, old Word) { sink += old.Val }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.Load(&snap)
		b.StartTimer()
		undone += l.Rollback(target, restore)
	}
	b.ReportMetric(float64(undone)/float64(b.N), "entries/op")
	if sink == 0 {
		b.Fatal("nothing restored")
	}
}
