package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same cycle: FIFO
	end := e.Run(0)
	if end != 10 {
		t.Fatalf("end cycle = %d, want 10", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v", got)
	}
}

func TestZeroDelayRunsAtSameCycle(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 7 {
		t.Fatalf("zero-delay event fired at %d, want 7", at)
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100, func() { fired = true })
	end := e.Run(50)
	if fired || end != 50 {
		t.Fatalf("limit violated: fired=%v end=%d", fired, end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(0)
	if !fired || e.Now() != 100 {
		t.Fatal("resumed run did not fire remaining event")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run(0)
	if n != 1 {
		t.Fatalf("Stop did not halt the engine: n=%d", n)
	}
}

func TestAtClampsToPresent(t *testing.T) {
	e := NewEngine()
	var at Cycle = 999
	e.Schedule(10, func() {
		e.At(3, func() { at = e.Now() }) // in the past: clamp to now
	})
	e.Run(0)
	if at != 10 {
		t.Fatalf("past At fired at %d, want 10", at)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 || e.Now() != 1 {
		t.Fatal("first Step misbehaved")
	}
	if !e.Step() || n != 2 || e.Now() != 2 {
		t.Fatal("second Step misbehaved")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine()
		rng := NewRNG(42)
		var trace []uint64
		var rec func()
		count := 0
		rec = func() {
			trace = append(trace, e.Now())
			count++
			if count < 200 {
				e.Schedule(Cycle(rng.Intn(10)+1), rec)
			}
		}
		e.Schedule(1, rec)
		e.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// tagSim is a tiny tagged-event model for the Save/Load tests: every
// event's behaviour is a pure function of its tag and the counts, so a
// saved queue plus a copy of the counts is its whole state.
type tagSim struct {
	e      *Engine
	counts [5]int
	fired  []firing
}

type firing struct {
	at Cycle
	id int32
}

// tagDelays gives each tag's re-arm delays: tags 1 and 2 collide on
// every cycle they fire, tag 3 re-arms at zero delay (same cycle,
// after the current event) and tag 4 drifts against the others.
var tagDelays = [5][]Cycle{1: {2}, 2: {2}, 3: {0, 3}, 4: {3, 1, 2}}

func (s *tagSim) resolve(t Tag) func() {
	return func() {
		s.fired = append(s.fired, firing{s.e.Now(), t.ID})
		n := s.counts[t.ID]
		s.counts[t.ID]++
		if n < 6 {
			d := tagDelays[t.ID]
			s.e.ScheduleTagged(d[n%len(d)], t, s.resolve(t))
		}
	}
}

// seed queues same-cycle and different-cycle tagged events.
func (s *tagSim) seed() {
	for _, id := range []int32{1, 2, 3, 4, 2} {
		t := Tag{Kind: 1, ID: id}
		s.e.ScheduleTagged(5, t, s.resolve(t))
	}
	t := Tag{Kind: 1, ID: 4}
	s.e.ScheduleTagged(1, t, s.resolve(t))
}

// TestSaveLoadPreservesFiringOrder: saving a tagged queue part-way and
// loading it into a fresh engine reproduces the original firing
// sequence exactly — same cycles, same same-cycle order — at every cut.
func TestSaveLoadPreservesFiringOrder(t *testing.T) {
	ref := &tagSim{e: NewEngine()}
	ref.seed()
	ref.e.Run(0)
	full := ref.fired
	if len(full) < 20 {
		t.Fatalf("reference run fired only %d events", len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		a := &tagSim{e: NewEngine()}
		a.seed()
		for i := 0; i < cut; i++ {
			a.e.Step()
		}
		now, seq, events, ok := a.e.Save(nil)
		if !ok {
			t.Fatalf("cut %d: Save refused an all-tagged queue", cut)
		}
		b := &tagSim{e: NewEngine(), counts: a.counts}
		b.e.Load(now, seq, events, b.resolve)
		a.e.Run(0)
		b.e.Run(0)
		if len(a.fired) != len(full) || len(b.fired) != len(full)-cut {
			t.Fatalf("cut %d: fired %d/%d events, want %d/%d",
				cut, len(a.fired), len(b.fired), len(full), len(full)-cut)
		}
		for i, f := range b.fired {
			if f != a.fired[cut+i] || f != full[cut+i] {
				t.Fatalf("cut %d: event %d fired %+v after Load, %+v in the saved engine, %+v in the reference",
					cut, cut+i, f, a.fired[cut+i], full[cut+i])
			}
		}
	}
}

// runShardChains drives a shard-partitioned workload on e, the shape a
// sharded machine puts on its one sequential engine: each shard runs an
// LCG-driven chain of shard-local events, and some firings send a
// payload to another shard that mutates the destination's RNG, so the
// trace depends on the exact interleaving. It runs to limit (0 means
// to quiescence) and returns the trace.
func runShardChains(e *Engine, limit Cycle) []uint64 {
	const shards, fires = 4, 100
	var rng [shards]uint64
	var fired [shards]int
	var trace []uint64
	for i := range rng {
		rng[i] = 0x9e3779b9 + uint64(i)*0xbf58476d
		var step func()
		step = func() {
			rng[i] = rng[i]*6364136223846793005 + 1442695040888963407
			r := rng[i]
			trace = append(trace, e.Now(), uint64(i), r)
			if fired[i]++; fired[i] < fires {
				e.Schedule(1+Cycle(r%5), step)
			}
			if r%7 == 0 {
				dst := (i + 1 + int(r%(shards-1))) % shards
				payload := r >> 13
				e.Schedule(8+Cycle(r%9), func() {
					rng[dst] ^= payload
					trace = append(trace, e.Now(), uint64(dst), rng[dst])
				})
			}
		}
		e.Schedule(Cycle(i+1), step)
	}
	e.Run(limit)
	return trace
}

// TestShardedReset: Reset returns an engine that stopped part-way
// through a shard-partitioned workload, with untagged events still
// pending, to a reusable zero state, and a rerun on it reproduces a
// fresh engine's trace, final clock and sequence counter.
func TestShardedReset(t *testing.T) {
	fresh := NewEngine()
	want := runShardChains(fresh, 0)
	wantNow, wantSeq, _, _ := fresh.Save(nil)

	e := NewEngine()
	runShardChains(e, 150)
	if e.Pending() == 0 || e.AllTagged() {
		t.Fatalf("partial run left %d events pending, want untagged events in flight", e.Pending())
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || !e.AllTagged() {
		t.Fatalf("after Reset: now=%d pending=%d allTagged=%v, want 0/0/true", e.Now(), e.Pending(), e.AllTagged())
	}
	if now, seq, events, ok := e.Save(nil); !ok || now != 0 || seq != 0 || len(events) != 0 {
		t.Fatalf("after Reset: Save = (%d, %d, %d events, %v), want (0, 0, 0 events, true)", now, seq, len(events), ok)
	}

	got := runShardChains(e, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rerun after Reset diverged from a fresh engine's trace")
	}
	if now, seq, _, _ := e.Save(nil); now != wantNow || seq != wantSeq {
		t.Fatalf("rerun after Reset ended at (now=%d, seq=%d), fresh engine at (%d, %d)", now, seq, wantNow, wantSeq)
	}
}

func TestRNGSnapshotRestore(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		for i := 0; i < int(n); i++ {
			r.Next()
		}
		s := r.State()
		a := make([]uint64, 8)
		for i := range a {
			a[i] = r.Next()
		}
		r.Restore(s)
		for i := range a {
			if r.Next() != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGRangesAndPanics(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Range(3, 5); v < 3 || v > 5 {
			t.Fatalf("Range out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	mustPanic(t, func() { r.Intn(0) })
	mustPanic(t, func() { r.Range(5, 3) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
