package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	sm := summarize(xs)
	if sm.N != 150 || sm.TailLevel != 0.9 || sm.Tail != 135 || sm.P50 != 75 {
		t.Errorf("summarize(1..150) = %+v, want n=150, tail p90=135, p50=75", sm)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) }
	parent := interval{d(0), d(100)}
	children := []interval{
		{d(10), d(30)}, {d(20), d(40)}, // overlap: count [10,40) once
		{d(90), d(120)}, // clipped to [90,100)
		{d(-5), d(5)},   // clipped to [0,5)
	}
	if got, want := selfTime(parent, children), d(100-30-10-5); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != d(100) {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	t0 := time.Unix(0, 0)
	ol := openLoop{start: t0, period: 10 * time.Millisecond}
	// One connection: the first request stalls for 50 ms, so the next
	// two go out late. Each is charged the stall from its due time; the
	// generator's lateness is reported apart from the latency.
	var dues []time.Time
	for i := 0; i < 3; i++ {
		dues = append(dues, ol.due())
	}
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	sent := []time.Time{at(0), at(50), at(55)}
	done := []time.Time{at(50), at(55), at(60)}
	wantLat := []float64{50, 45, 40}
	wantLate := []float64{0, 40, 35}
	for i := range dues {
		lat, late := openLoopSample(dues[i], sent[i], done[i])
		if math.Abs(lat-wantLat[i]) > 1e-9 || math.Abs(late-wantLate[i]) > 1e-9 {
			t.Errorf("request %d: latency %g lateness %g, want %g and %g", i, lat, late, wantLat[i], wantLate[i])
		}
	}
}

// TestSmoke runs every workload at the smoke scale, untraced and
// traced, and checks what every run must deliver: every declared
// end-to-end metric emitted with its unit and never 0, no failed
// operation, a traced sim_digest equal to the untraced one, and every
// declared per-layer metric reached by some workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	reached := make(map[string]bool)
	for _, w := range workloads {
		var reps [2]*report
		for trace := 0; trace <= 1; trace++ {
			var log bytes.Buffer
			rep := runOne(options{workload: w.name, seed: 1, seconds: 1, trace: trace, smoke: true}, bj, &log)
			reps[trace] = rep
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d\n%s",
					w.name, trace, rep.Correct, rep.Attempted, rep.Failed, log.String())
			}
			for _, m := range bj.EndToEnd {
				v, ok := rep.EndToEnd[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("%s trace=%d: %s = %+v, want a positive value in %s", w.name, trace, m.Name, v, m.Unit)
				}
			}
			if len(rep.PerLayer) != len(bj.PerLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(rep.PerLayer), len(bj.PerLayer))
			}
		}
		if reps[0].SimDigest != reps[1].SimDigest {
			t.Errorf("%s: traced sim_digest %s != untraced %s", w.name, reps[1].SimDigest, reps[0].SimDigest)
		}
		notReached := make(map[string]bool)
		for _, name := range reps[1].NotExercised {
			notReached[name] = true
		}
		for _, m := range bj.PerLayer {
			if !notReached[m.Name] {
				reached[m.Name] = true
			}
		}
	}
	for _, m := range bj.PerLayer {
		if !reached[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
}
