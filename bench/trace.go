package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for the traced run. Spans are recorded
// by the benchmark around its own calls into each layer of the
// program; nothing inside the program is instrumented. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one operation share op, the id of
// the operation's root span; parent links a span to the span that
// caused it (0 for a root).
type span struct {
	ID, Parent, Op uint64
	Lane           int
	Layer, Name    string
	Start, End     time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanCtxKey struct{}

// spanRef is what a context carries so child spans can find their
// parent and operation, including across an HTTP hop (see spanHeader).
type spanRef struct {
	id, op uint64
	lane   int
}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// withLane tags ctx with a display lane (a Chrome-trace thread id), so
// the spans of one goroutine nest on one row in Perfetto.
func withLane(ctx context.Context, lane int) context.Context {
	ref := refFrom(ctx)
	ref.lane = lane
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

// begin opens a span under the span in ctx (or as a new operation's
// root) and returns the child context and the function that closes it.
func (t *tracer) begin(ctx context.Context, layer, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent := refFrom(ctx)
	id := t.ids.Add(1)
	op := parent.op
	if parent.id == 0 {
		op = id
	}
	start := time.Since(t.t0)
	child := context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, op: op, lane: parent.lane})
	return child, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: op, Lane: parent.lane,
			Layer: layer, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns its duration. The duration
// is measured whether or not tracing is on, so the same call sites feed
// both the untraced run's metrics and the trace.
func (t *tracer) timed(ctx context.Context, layer, name string, fn func(context.Context)) time.Duration {
	ctx, end := t.begin(ctx, layer, name)
	start := time.Now()
	fn(ctx)
	d := time.Since(start)
	end()
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerRow is one layer's line of the traced run's table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Count  int     `json:"count"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// layerTable aggregates spans by layer: count, busy time (sum of span
// durations), self time (each span minus the union of its children),
// and the median and p99 span duration.
func layerTable(spans []span) []layerRow {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerRow)
	durs := make(map[string][]float64)
	for _, s := range spans {
		row := rows[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			rows[s.Layer] = row
		}
		row.Count++
		row.BusyMS += ms(s.dur())
		row.SelfMS += ms(selfTime(interval{s.Start, s.End}, children[s.ID]))
		durs[s.Layer] = append(durs[s.Layer], ms(s.dur()))
	}
	out := make([]layerRow, 0, len(rows))
	for layer, row := range rows {
		sm := summarize(durs[layer])
		row.P50MS, row.P99MS = sm.P50, sm.P99
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-12s %8s %12s %12s %10s %10s\n", "layer", "count", "busy_ms", "self_ms", "p50_ms", "p99_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %12.1f %12.1f %10.3f %10.3f\n",
			r.Layer, r.Count, r.BusyMS, r.SelfMS, r.P50MS, r.P99MS)
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	events := make([]event, len(sorted))
	for i, s := range sorted {
		events[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X", TS: us(s.Start), Dur: us(s.dur()),
			PID: 1, TID: s.Lane, Args: map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
