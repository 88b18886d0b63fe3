// Package sim provides the deterministic discrete-event simulation
// engine underneath the Rebound manycore model. It is single-threaded:
// events fire in (time, insertion-order) order, so a given configuration
// and seed always produces the same execution.
//
// The event queue is a timing wheel (Varghese and Lauck, "Hashed and
// hierarchical timing wheels", SOSP 1987): one FIFO bucket per cycle
// for the next wheelSize cycles, plus a small overflow min-heap for
// events further ahead. Almost every event in the simulator is a
// processor step a few cycles ahead, so schedule and pop are constant
// time, and the firing order is exactly (time, insertion order).
package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// Cycle is a point in simulated time, in core clock cycles (1 GHz in the
// paper's configuration, so 1 cycle = 1 ns).
type Cycle = uint64

// Tag identifies what a scheduled event will do, as data: a small kind
// plus an index (typically a processor id). Tagged events are the
// foundation of machine snapshots — a pending tagged event can be saved
// as (at, seq, tag) and re-bound to a fresh closure on restore, whereas
// an untagged event is an opaque closure that cannot outlive its
// capture environment. The zero Tag marks an untagged event.
type Tag struct {
	Kind uint8
	ID   int32
}

// SavedEvent is the snapshot form of one pending tagged event.
type SavedEvent struct {
	At  Cycle
	Seq uint64
	Tag Tag
}

const (
	// wheelSize is the wheel's span in cycles, one bucket per cycle. An
	// event this many cycles ahead or more waits in the overflow heap.
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// key is one overflow-heap entry: the event's firing order, (time,
// insertion order), and the slot holding its tag and closure. It holds
// no pointer, so a sift moves plain words with no GC write barrier.
type key struct {
	at   Cycle
	seq  uint64
	slot int32
}

// before orders events by (time, insertion order).
func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// slot is the payload of one pending event. A wheel event's cycle is
// its bucket's, so the slot keeps only its sequence number and the
// next slot in its bucket.
type slot struct {
	fn   func()
	seq  uint64
	tag  Tag
	next int32
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Pending events live in a slot table; freed slots are reused, so the
// queue allocates only when it grows. An event less than wheelSize
// cycles ahead joins the tail of its cycle's bucket, a FIFO list
// threaded through the slots; occ has one bit per non-empty bucket.
// Because every wheel event lies in [now, now+wheelSize), a bucket
// holds events of one cycle only, and because sequence numbers only
// grow, each bucket is in sequence order. Events further ahead wait in
// the overflow heap until they order first.
type Engine struct {
	now   Cycle
	seq   uint64
	slots []slot
	free  []int32 // indices of unused slots
	// wheeled counts the events in buckets; over holds the rest.
	wheeled    int
	occ        [wheelWords]uint64
	head, tail [wheelSize]int32
	over       []key
	stopped    bool
	// untagged counts pending events with a zero Tag; a snapshot is only
	// possible when it is zero (every pending event re-bindable).
	untagged int
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// push queues fn at cycle at under sequence number seq, which must be
// above that of every pending event of the same cycle.
func (e *Engine) push(at Cycle, seq uint64, tag Tag, fn func()) {
	var si int32
	if n := len(e.free); n > 0 {
		si = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[si] = slot{fn: fn, seq: seq, tag: tag}
	} else {
		si = int32(len(e.slots))
		e.slots = append(e.slots, slot{fn: fn, seq: seq, tag: tag})
	}
	if at-e.now >= wheelSize {
		e.pushOver(key{at: at, seq: seq, slot: si})
		return
	}
	b := at & wheelMask
	if w, bit := b>>6, uint64(1)<<(b&63); e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		e.head[b] = si
	} else {
		e.slots[e.tail[b]].next = si
	}
	e.tail[b] = si
	e.wheeled++
}

// pushOver adds k to the overflow heap, moving a hole up from the end
// to where k belongs.
func (e *Engine) pushOver(k key) {
	h := append(e.over, key{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	e.over = h
}

// popOver removes the overflow root. The root's hole moves down,
// pulling up the smaller child while it precedes the last key, which
// then fills it.
func (e *Engine) popOver() {
	h := e.over
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			least, lk := i, last
			if l < n && h[l].before(lk) {
				least, lk = l, h[l]
			}
			if r < n && h[r].before(lk) {
				least, lk = r, h[r]
			}
			if least == i {
				break
			}
			h[i] = lk
			i = least
		}
		h[i] = last
	}
	e.over = h
}

// firstBucket returns the first non-empty bucket at or after now's.
// The wheel must hold an event.
func (e *Engine) firstBucket() Cycle {
	b := e.now & wheelMask
	w := b >> 6
	word := e.occ[w] & (^uint64(0) << (b & 63))
	for word == 0 {
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
	}
	return w<<6 | Cycle(bits.TrailingZeros64(word))
}

// next returns the cycle of the event that fires next and where it is:
// a wheel bucket, or -1 for the overflow root. The queue must not be
// empty.
func (e *Engine) next() (Cycle, int) {
	if e.wheeled == 0 {
		return e.over[0].at, -1
	}
	b := e.firstBucket()
	at := e.now + (b-e.now)&wheelMask
	if len(e.over) > 0 {
		if o := e.over[0]; o.before(key{at: at, seq: e.slots[e.head[b]].seq}) {
			return o.at, -1
		}
	}
	return at, int(b)
}

// fire removes the event next located (bucket b, or the overflow root
// when b is -1), advances the clock to at and runs the event.
func (e *Engine) fire(at Cycle, b int) {
	var si int32
	if b < 0 {
		si = e.over[0].slot
		e.popOver()
	} else {
		si = e.head[b]
		if si == e.tail[b] {
			e.occ[b>>6] &^= 1 << (b & 63)
		} else {
			e.head[b] = e.slots[si].next
		}
		e.wheeled--
	}
	sl := &e.slots[si]
	fn := sl.fn
	if sl.tag == (Tag{}) {
		e.untagged--
	}
	*sl = slot{} // release the fn reference
	e.free = append(e.free, si)
	e.now = at
	fn()
}

// Schedule runs fn after delay cycles. A delay of 0 runs fn after the
// current event completes (still at the same cycle). Events scheduled
// for the same cycle fire in scheduling order.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.seq++
	e.untagged++
	e.push(e.now+delay, e.seq, Tag{}, fn)
}

// ScheduleTagged is Schedule for an event whose behaviour is fully
// determined by its tag plus restorable simulator state: a machine
// snapshot saves it as data and a restore re-binds its closure from the
// tag. tag must be non-zero — a zero tag would corrupt the untagged
// counter that gates snapshot safety, so it panics instead.
func (e *Engine) ScheduleTagged(delay Cycle, tag Tag, fn func()) {
	if tag == (Tag{}) {
		panic("sim: ScheduleTagged with a zero tag (use Schedule)")
	}
	e.seq++
	e.push(e.now+delay, e.seq, tag, fn)
}

// AllTagged reports whether every pending event carries a tag, i.e.
// whether the queue is snapshotable.
func (e *Engine) AllTagged() bool { return e.untagged == 0 }

// Save captures the scheduler state — current cycle, sequence counter
// and the pending events in firing order, ascending (at, seq) —
// appending the events to buf[:0]. It walks the buckets from now's and
// merges in the overflow events, which it sorts in place (a sorted
// array is still a valid heap). It fails (ok=false) when any pending
// event is untagged.
func (e *Engine) Save(buf []SavedEvent) (now Cycle, seq uint64, events []SavedEvent, ok bool) {
	if e.untagged != 0 {
		return 0, 0, buf[:0], false
	}
	buf = buf[:0]
	slices.SortFunc(e.over, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	over := e.over
	for at, left := e.now, e.wheeled; left > 0; at++ {
		b := at & wheelMask
		if e.occ[b>>6]&(1<<(b&63)) == 0 {
			continue
		}
		for si := e.head[b]; ; si = e.slots[si].next {
			sl := &e.slots[si]
			for len(over) > 0 && over[0].before(key{at: at, seq: sl.seq}) {
				buf = append(buf, e.saved(over[0]))
				over = over[1:]
			}
			buf = append(buf, SavedEvent{At: at, Seq: sl.seq, Tag: sl.tag})
			left--
			if si == e.tail[b] {
				break
			}
		}
	}
	for _, k := range over {
		buf = append(buf, e.saved(k))
	}
	return e.now, e.seq, buf, true
}

// saved is the snapshot form of overflow entry k.
func (e *Engine) saved(k key) SavedEvent {
	return SavedEvent{At: k.at, Seq: k.seq, Tag: e.slots[k.slot].tag}
}

// Load restores scheduler state captured by Save: the clock, the
// sequence counter and the pending queue, with each event's closure
// re-bound through resolve. events must be in the firing order Save
// produces, ascending (at, seq), and none may lie before now; Load
// links them into the wheel and the overflow heap in the order given.
func (e *Engine) Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func()) {
	e.now, e.seq, e.stopped, e.untagged = now, seq, false, 0
	clear(e.slots) // release stale fn references
	e.slots, e.free, e.over = e.slots[:0], e.free[:0], e.over[:0]
	e.occ, e.wheeled = [wheelWords]uint64{}, 0
	for _, sv := range events {
		e.push(sv.At, sv.Seq, sv.Tag, resolve(sv.Tag))
	}
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		when = e.now
	}
	e.Schedule(when-e.now, fn)
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wheeled + len(e.over) }

// Stop makes Run return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events until the queue is empty, Stop is called, or the
// next event lies beyond limit (0 means no limit). In the last case the
// clock moves to limit, unless limit is in the past: the clock never
// runs backward, since the wheel's buckets are relative to it. It
// returns the cycle at which the engine stopped.
func (e *Engine) Run(limit Cycle) Cycle {
	e.stopped = false
	for e.Pending() > 0 && !e.stopped {
		at, b := e.next()
		if limit != 0 && at > limit {
			e.now = max(e.now, limit)
			return e.now
		}
		e.fire(at, b)
	}
	return e.now
}

// Step fires exactly one event if any is pending and returns whether an
// event fired. Used by tests that need fine-grained control.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	e.fire(e.next())
	return true
}
