package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one timing distribution the way the benchmark
// reports every timing: median, the fixed p90/p99 levels, and the
// highest percentile that still has at least ten samples beyond it,
// together with the sample count it rests on.
type summary struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	P90       float64 `json:"p90"`
	P99       float64 `json:"p99"`
	TailLevel float64 `json:"tail_level"` // e.g. 0.9; 0 when fewer than 20 samples
	Tail      float64 `json:"tail"`
}

// tailLevels are the candidate tail percentiles, in per-mille so the
// "samples beyond" test is exact integer arithmetic.
var tailLevels = []int{999, 990, 900, 500}

// tailLevel returns the highest candidate percentile (as a fraction)
// with at least ten of n samples beyond it, or 0 when even the median
// has fewer than ten beyond it.
func tailLevel(n int) float64 {
	for _, pm := range tailLevels {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0
}

// percentile returns the nearest-rank p-quantile of sorted (0 < p <= 1).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sm := summary{N: len(s), P50: percentile(s, 0.5), P90: percentile(s, 0.9), P99: percentile(s, 0.99)}
	if lv := tailLevel(len(s)); lv > 0 {
		sm.TailLevel, sm.Tail = lv, percentile(s, lv)
	}
	return sm
}

// quartiles returns the first, second and third quartiles of xs with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so
// the spreads -repeat prints match the ones an external check computes.
// It needs at least two values; with one it returns that value thrice.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	_, m, _ := quartiles(xs)
	return m
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// selfTime returns the part of parent not covered by any child: the
// span's duration minus the length of the union of its children's
// intervals, each clipped to the parent. Overlapping children (work a
// span fanned out in parallel) are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// openLoop schedules requests at a fixed rate and times each one from
// the moment it was due, so a stall is charged to every request it
// delays and not only to the one that hit it. Lateness (send time
// minus due time) is kept apart, to show how much of a latency is the
// generator's own delay.
type openLoop struct {
	start  time.Time
	period time.Duration
	next   int
}

// due returns the due time of the next request and advances.
func (o *openLoop) due() time.Time {
	t := o.start.Add(time.Duration(o.next) * o.period)
	o.next++
	return t
}

// openLoopSample turns one request's timestamps into its latency from
// due and the generator's lateness, both in milliseconds.
func openLoopSample(due, sent, done time.Time) (latencyMS, lateMS float64) {
	return ms(done.Sub(due)), ms(sent.Sub(due))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
