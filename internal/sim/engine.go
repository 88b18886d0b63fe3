// Package sim provides the deterministic discrete-event simulation
// engine underneath the Rebound manycore model. It is single-threaded:
// events fire in (time, insertion-order) order, so a given configuration
// and seed always produces the same execution.
package sim

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

// key is one heap entry: the event's firing order, (time, insertion
// order), and the slot holding its tag and closure. It holds no
// pointer, so a sift moves plain words with no GC write barrier; only
// push and pop write a closure pointer, once each.
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

// slot is the payload of one pending event.
type slot struct {
	tag Tag
	fn  func()
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// The event queue is a hand-rolled binary min-heap of pointer-free keys
// rather than container/heap, whose interface-based API boxes every
// event. Each key names a slot in a table that holds the event's tag
// and closure; freed slots are reused, so the queue allocates only
// when it grows.
type Engine struct {
	now     Cycle
	seq     uint64
	heap    []key
	slots   []slot
	free    []int32 // indices of unused slots
	stopped bool
	// untagged counts pending events with a zero Tag; a snapshot is only
	// possible when it is zero (every pending event re-bindable).
	untagged int
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// push queues fn at cycle at under the current sequence number, moving
// a hole up from the end of the heap to where the new key belongs.
func (e *Engine) push(at Cycle, tag Tag, fn func()) {
	var si int32
	if n := len(e.free); n > 0 {
		si = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[si] = slot{tag: tag, fn: fn}
	} else {
		si = int32(len(e.slots))
		e.slots = append(e.slots, slot{tag: tag, fn: fn})
	}
	k := key{at: at, seq: e.seq, slot: si}
	h := append(e.heap, key{})
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
	e.heap = h
}

// pop removes the minimum event and returns its cycle and closure. The
// queue must not be empty. The root's hole moves down, pulling up the
// smaller child while it precedes the last key, which then fills it.
func (e *Engine) pop() (Cycle, func()) {
	h := e.heap
	top := h[0]
	sl := &e.slots[top.slot]
	fn := sl.fn
	if sl.tag == (Tag{}) {
		e.untagged--
	}
	*sl = slot{} // release the fn reference
	e.free = append(e.free, top.slot)
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
	e.heap = h
	return top.at, fn
}

// Schedule runs fn after delay cycles. A delay of 0 runs fn after the
// current event completes (still at the same cycle). Events scheduled
// for the same cycle fire in scheduling order.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.seq++
	e.untagged++
	e.push(e.now+delay, Tag{}, fn)
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
	e.push(e.now+delay, tag, fn)
}

// AllTagged reports whether every pending event carries a tag, i.e.
// whether the queue is snapshotable.
func (e *Engine) AllTagged() bool { return e.untagged == 0 }

// Save captures the scheduler state — current cycle, sequence counter
// and the pending events in heap-array order — appending the events to
// buf[:0]. It fails (ok=false) when any pending event is untagged.
func (e *Engine) Save(buf []SavedEvent) (now Cycle, seq uint64, events []SavedEvent, ok bool) {
	if e.untagged != 0 {
		return 0, 0, buf[:0], false
	}
	buf = buf[:0]
	for _, k := range e.heap {
		buf = append(buf, SavedEvent{At: k.at, Seq: k.seq, Tag: e.slots[k.slot].tag})
	}
	return e.now, e.seq, buf, true
}

// Load restores scheduler state captured by Save: the clock, the
// sequence counter and the pending queue, with each event's closure
// re-bound through resolve. events must be in the heap-array order Save
// produced (any heap-valid order works; Save's order trivially is).
func (e *Engine) Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func()) {
	e.now, e.seq, e.stopped, e.untagged = now, seq, false, 0
	clear(e.slots) // release stale fn references
	e.slots, e.free, e.heap = e.slots[:0], e.free[:0], e.heap[:0]
	for i, sv := range events {
		e.heap = append(e.heap, key{at: sv.At, seq: sv.Seq, slot: int32(i)})
		e.slots = append(e.slots, slot{tag: sv.Tag, fn: resolve(sv.Tag)})
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
func (e *Engine) Pending() int { return len(e.heap) }

// Stop makes Run return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events until the queue is empty, Stop is called, or the
// next event lies beyond limit (0 means no limit). It returns the cycle
// at which the engine stopped.
func (e *Engine) Run(limit Cycle) Cycle {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if limit != 0 && e.heap[0].at > limit {
			e.now = limit
			return e.now
		}
		at, fn := e.pop()
		e.now = at
		fn()
	}
	return e.now
}

// Step fires exactly one event if any is pending and returns whether an
// event fired. Used by tests that need fine-grained control.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	at, fn := e.pop()
	e.now = at
	fn()
	return true
}
