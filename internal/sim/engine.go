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

type event struct {
	at  Cycle
	seq uint64
	tag Tag
	fn  func()
}

// before orders events by (time, insertion order).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// The event queue is a hand-rolled binary min-heap rather than
// container/heap: the interface-based API boxes every event on Push and
// Pop, which made the scheduler the simulator's largest allocation
// source (one heap allocation per scheduled op). The typed heap keeps
// events in a reusable slice and allocates only on queue growth.
type Engine struct {
	now     Cycle
	seq     uint64
	heap    []event
	stopped bool
	// untagged counts pending events with a zero Tag; a snapshot is only
	// possible when it is zero (every pending event re-bindable).
	untagged int
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// push inserts ev, sifting up to restore the heap order.
func (e *Engine) push(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// pop removes and returns the minimum event. The queue must not be
// empty.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	if top.tag == (Tag{}) {
		e.untagged--
	}
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn reference
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].before(h[least]) {
			least = l
		}
		if r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	e.heap = h
	return top
}

// Schedule runs fn after delay cycles. A delay of 0 runs fn after the
// current event completes (still at the same cycle). Events scheduled
// for the same cycle fire in scheduling order.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.seq++
	e.untagged++
	e.push(event{at: e.now + delay, seq: e.seq, fn: fn})
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
	e.push(event{at: e.now + delay, seq: e.seq, tag: tag, fn: fn})
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
	for _, ev := range e.heap {
		buf = append(buf, SavedEvent{At: ev.at, Seq: ev.seq, Tag: ev.Tag()})
	}
	return e.now, e.seq, buf, true
}

// Tag returns the event's tag (helper for Save).
func (ev event) Tag() Tag { return ev.tag }

// Load restores scheduler state captured by Save: the clock, the
// sequence counter and the pending queue, with each event's closure
// re-bound through resolve. events must be in the heap-array order Save
// produced (any heap-valid order works; Save's order trivially is).
func (e *Engine) Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func()) {
	e.now, e.seq, e.stopped, e.untagged = now, seq, false, 0
	clear(e.heap) // release stale fn references
	e.heap = e.heap[:0]
	for _, sv := range events {
		e.heap = append(e.heap, event{at: sv.At, seq: sv.Seq, tag: sv.Tag, fn: resolve(sv.Tag)})
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
		ev := e.pop()
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// Step fires exactly one event if any is pending and returns whether an
// event fired. Used by tests that need fine-grained control.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fn()
	return true
}
