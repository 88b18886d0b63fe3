package sim

import (
	"fmt"
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

// BenchmarkEngine measures one pop plus one schedule with 4, 16, 64 and
// 256 pending step-like events: tagged, pre-bound closures that each
// reschedule themselves, as a processor's step does. Delays follow the
// mix the simulator schedules: mostly 2 to 15 cycles, a tail to 512,
// and about one in 30,000 beyond the wheel's span.
func BenchmarkEngine(b *testing.B) {
	rng := NewRNG(1)
	delays := make([]Cycle, 1<<16)
	for i := range delays {
		switch r := rng.Intn(30_000); {
		case r == 0:
			delays[i] = wheelSize + Cycle(rng.Intn(2*wheelSize))
		case r%10 == 0:
			delays[i] = Cycle(rng.Range(16, 512))
		default:
			delays[i] = Cycle(rng.Range(2, 15))
		}
	}
	for _, pending := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			next := 0
			fns := make([]func(), pending)
			for i := range fns {
				tag := Tag{Kind: 1, ID: int32(i)}
				fns[i] = func() {
					e.ScheduleTagged(delays[next], tag, fns[i])
					next = (next + 1) & (len(delays) - 1)
				}
				e.ScheduleTagged(Cycle(i%16), tag, fns[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
