package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// queue is the Engine API the order tests drive, so that one scenario
// runs against the engine and against refQueue side by side.
type queue interface {
	Now() Cycle
	Pending() int
	Schedule(delay Cycle, fn func())
	ScheduleTagged(delay Cycle, tag Tag, fn func())
	At(when Cycle, fn func())
	Run(limit Cycle) Cycle
	Step() bool
	AllTagged() bool
	Save(buf []SavedEvent) (Cycle, uint64, []SavedEvent, bool)
	Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func())
}

// refEvent is one pending event of refQueue.
type refEvent struct {
	SavedEvent
	fn func()
}

// refQueue is the reference model: the pending events in a slice kept
// sorted by (at, seq), popped from the front.
type refQueue struct {
	now Cycle
	seq uint64
	evs []refEvent
}

func (q *refQueue) Now() Cycle   { return q.now }
func (q *refQueue) Pending() int { return len(q.evs) }

func (q *refQueue) insert(at Cycle, tag Tag, fn func()) {
	q.seq++
	i, _ := slices.BinarySearchFunc(q.evs, at, func(ev refEvent, at Cycle) int {
		if ev.At <= at {
			return -1 // a new event goes after every event of its cycle
		}
		return 1
	})
	q.evs = slices.Insert(q.evs, i, refEvent{SavedEvent{At: at, Seq: q.seq, Tag: tag}, fn})
}

func (q *refQueue) Schedule(delay Cycle, fn func()) { q.insert(q.now+delay, Tag{}, fn) }

func (q *refQueue) ScheduleTagged(delay Cycle, tag Tag, fn func()) {
	q.insert(q.now+delay, tag, fn)
}

func (q *refQueue) At(when Cycle, fn func()) { q.insert(max(when, q.now), Tag{}, fn) }

func (q *refQueue) Step() bool {
	if len(q.evs) == 0 {
		return false
	}
	ev := q.evs[0]
	q.evs = q.evs[1:]
	q.now = ev.At
	ev.fn()
	return true
}

func (q *refQueue) Run(limit Cycle) Cycle {
	for len(q.evs) > 0 {
		if limit != 0 && q.evs[0].At > limit {
			q.now = max(q.now, limit)
			break
		}
		q.Step()
	}
	return q.now
}

func (q *refQueue) AllTagged() bool {
	return !slices.ContainsFunc(q.evs, func(ev refEvent) bool { return ev.Tag == (Tag{}) })
}

func (q *refQueue) Save(buf []SavedEvent) (Cycle, uint64, []SavedEvent, bool) {
	buf = buf[:0]
	if !q.AllTagged() {
		return 0, 0, buf, false
	}
	for _, ev := range q.evs {
		buf = append(buf, ev.SavedEvent)
	}
	return q.now, q.seq, buf, true
}

func (q *refQueue) Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func()) {
	q.now, q.seq, q.evs = now, seq, nil
	for _, sv := range events {
		q.evs = append(q.evs, refEvent{sv, resolve(sv.Tag)})
	}
}

// world runs one scenario on one queue and records what fires.
type world struct {
	q     queue
	trace []firing
}

// ev is event id's behaviour, a function of id alone so a restore can
// re-bind it from its tag: record the firing, and for an id that is a
// multiple of 4, re-arm as id/4 after a delay that reaches three wheel
// spans, much as a processor's step re-arms itself.
func (w *world) ev(id int32) func() {
	return func() {
		w.trace = append(w.trace, firing{w.q.Now(), id})
		if id > 0 && id%4 == 0 {
			child := id / 4
			w.q.ScheduleTagged(Cycle(id)*37%(3*wheelSize), Tag{Kind: 1, ID: child}, w.ev(child))
		}
	}
}

func (w *world) resolve(t Tag) func() { return w.ev(t.ID) }

// checkEngineOrder decodes ops as a run of 3-byte operations (an opcode
// and a little-endian argument) and applies each to an Engine and to
// the reference model. Firing order, Now and Pending must agree after
// every operation.
func checkEngineOrder(t *testing.T, ops []byte) {
	eng := &world{q: NewEngine()}
	ref := &world{q: &refQueue{}}
	var nextID int32 = 1
	var buf []SavedEvent
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		op, arg := ops[0], Cycle(binary.LittleEndian.Uint16(ops[1:]))
		// Delays run from 0 to three wheel spans; a small one (arg's top
		// bit set) piles events onto the same few cycles.
		delay := arg % (3*wheelSize + 1)
		if arg&0x8000 != 0 {
			delay = arg % 16
		}
		var what string
		for _, w := range []*world{eng, ref} {
			id := nextID
			switch op % 8 {
			case 0:
				what = fmt.Sprintf("Schedule(%d)", delay)
				w.q.Schedule(delay, w.ev(id))
			case 1, 2:
				what = fmt.Sprintf("ScheduleTagged(%d)", delay)
				w.q.ScheduleTagged(delay, Tag{Kind: 1, ID: id}, w.ev(id))
			case 3:
				when := w.q.Now() + delay
				if arg&1 == 0 {
					when = w.q.Now() - min(w.q.Now(), delay) // in the past
				}
				what = fmt.Sprintf("At(%d)", when)
				w.q.At(when, w.ev(id))
			case 4:
				limit := w.q.Now() + delay
				if arg&1 == 0 {
					limit = w.q.Now() - min(w.q.Now(), delay%4)
				}
				what = fmt.Sprintf("Run(%d)", limit)
				w.q.Run(limit)
			case 5, 6:
				what = "Step"
				w.q.Step()
			case 7:
				what = "Save+Load"
				now, seq, evs, ok := w.q.Save(buf)
				if !ok {
					continue
				}
				if w == eng {
					fresh := NewEngine()
					fresh.Load(now, seq, evs, w.resolve)
					w.q = fresh
				} else {
					// The reference's saved list must be the engine's.
					_, _, got, _ := eng.q.Save(nil)
					if !slices.Equal(got, evs) {
						t.Fatalf("op %d: Save listed %v, want %v", step, got, evs)
					}
				}
				buf = evs
			}
		}
		nextID++
		switch {
		case !slices.Equal(eng.trace, ref.trace):
			t.Fatalf("op %d %s: fired %v, want %v", step, what, eng.trace, ref.trace)
		case eng.q.Now() != ref.q.Now():
			t.Fatalf("op %d %s: now %d, want %d", step, what, eng.q.Now(), ref.q.Now())
		case eng.q.Pending() != ref.q.Pending():
			t.Fatalf("op %d %s: %d pending, want %d", step, what, eng.q.Pending(), ref.q.Pending())
		case eng.q.AllTagged() != ref.q.AllTagged():
			t.Fatalf("op %d %s: AllTagged %v, want %v", step, what, eng.q.AllTagged(), ref.q.AllTagged())
		}
	}
	eng.q.Run(0)
	ref.q.Run(0)
	if !slices.Equal(eng.trace, ref.trace) || eng.q.Now() != ref.q.Now() {
		t.Fatalf("draining: fired %v at %d, want %v at %d", eng.trace, eng.q.Now(), ref.trace, ref.q.Now())
	}
}

// TestEngineMatchesReference drives seeded random operation mixes
// through checkEngineOrder: mostly tagged schedules with a few untagged
// ones, so that Save sometimes refuses and sometimes snapshots.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		ops := make([]byte, 3*(50+rng.Intn(400)))
		for i := 0; i < len(ops); i += 3 {
			// Weight tagged schedules up so the queue grows, and make
			// untagged ones rare so Save+Load mostly has work to do.
			op := byte(rng.Intn(16))
			switch {
			case op >= 8 && op < 12:
				op = 1
			case op == 0 && rng.Intn(4) != 0:
				op = 2
			}
			ops[i] = op % 8
			binary.LittleEndian.PutUint16(ops[i+1:], uint16(rng.Next()))
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkEngineOrder(t, ops) })
	}
}

// FuzzEngineOrder: any operation mix fires the same events in the same
// order at the same cycles as the sorted-list reference model.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{1, 5, 0, 1, 5, 0, 0, 5, 0, 6, 0, 0, 7, 0, 0, 4, 0, 0x10})
	f.Add([]byte{1, 0xff, 0x0b, 2, 0x01, 0x04, 1, 0x00, 0x04, 7, 0, 0, 4, 0x01, 0x0c, 5, 0, 0})
	f.Add([]byte{1, 0x10, 0x00, 3, 0x20, 0, 1, 0x03, 0x80, 4, 0x01, 0x08, 7, 0, 0, 6, 0, 0})
	f.Fuzz(checkEngineOrder)
}
