package machine_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fft4 builds the FFT/4 quick Rebound machine the decoder tests target,
// with two-set caches. The payload persists only occupied cache ways,
// so small caches trim it from 171 KB to 116 KB: the fuzzer mutates
// fewer bytes of cache lines and more of everything else.
func fft4(tb testing.TB, shards int) *machine.Machine {
	tb.Helper()
	spec := harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick}
	sch, err := harness.SchemeFor(spec.Scheme)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := machine.DefaultConfig(spec.Procs)
	cfg.CkptInterval, cfg.DetectLatency = spec.Scale.Interval, spec.Scale.DetectLatency
	cfg.Seed, cfg.Shards = harness.DeriveSeed(spec), shards
	cfg.L1Size, cfg.L2Size = 256, 512
	return machine.New(cfg, workload.ByName(spec.App), sch)
}

// fft4Payload warms an FFT/4 machine at the given shard count to a
// snapshot-safe point and returns its encoded snapshot.
func fft4Payload(tb testing.TB, shards int) []byte {
	tb.Helper()
	m := fft4(tb, shards)
	m.Run(harness.Quick.InstrPerProc * 4 / 4) // the campaign warmup
	if !m.SettleForSnapshot(sim.Cycle(400_000)) {
		tb.Fatal("machine never reached a snapshot-safe point")
	}
	s := new(machine.MachineSnapshot)
	if err := m.Snapshot(s); err != nil {
		tb.Fatal(err)
	}
	enc, err := m.EncodeSnapshot(s)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// The helpers below walk the format's framing (persist.go): a payload is
// a 12-byte header and a run of sections, each a little-endian uint32
// length and a body. A case edits one field of a real payload and
// leaves every other byte as it was.

// Top-level sections, in payload order.
const (
	secConfig = iota
	secSchemeName
	secEngine
	secStats
	secTable
	secMemory
	secLog
	secDRAM
	secDir
	secProcs
	secSchemeState
)

const headLen = 12 // magic and format

// sections splits a run of sections into their bodies.
func sections(tb testing.TB, b []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 || int(binary.LittleEndian.Uint32(b)) > len(b)-4 {
			tb.Fatal("malformed section framing")
		}
		n := binary.LittleEndian.Uint32(b)
		out = append(out, b[4:4+n:4+n]) // capped: an edit's append copies
		b = b[4+n:]
	}
	return out
}

// join frames bodies back into a run of sections.
func join(bodies ...[]byte) []byte {
	var b []byte
	for _, body := range bodies {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

// doc is a payload split into its top-level sections and processor 0's
// four sections (L1, L2, Dep registers, state).
type doc struct {
	head  []byte
	secs  [][]byte
	nproc uint64
	procs [][]byte // every processor's section body
	proc0 [][]byte // processor 0's sections
	cut   int      // bytes dropped from the end
}

func splitPayload(tb testing.TB, payload []byte) *doc {
	tb.Helper()
	d := &doc{head: payload[:headLen], secs: sections(tb, payload[headLen:])}
	r := reader{b: d.secs[secProcs]}
	d.nproc = r.uv()
	d.procs = sections(tb, r.b)
	d.proc0 = sections(tb, d.procs[0])
	return d
}

func (d *doc) bytes() []byte {
	procs := append([][]byte{join(d.proc0...)}, d.procs[1:]...)
	secs := append([][]byte(nil), d.secs...)
	secs[secProcs] = append(binary.AppendUvarint(nil, d.nproc), join(procs...)...)
	b := append(append([]byte(nil), d.head...), join(secs...)...)
	return b[:len(b)-d.cut]
}

// reader reads the varints of a section body.
type reader struct{ b []byte }

func (r *reader) uv() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *reader) iv() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *reader) take(n int) []byte {
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// cacheSec is a cache section: ways, LRU clock, pair count, then the
// (index, line) pairs, each line kept as its bytes.
type cacheSec struct {
	ways, lru, count uint64
	idx              []uint64
	lines            [][]byte
}

func parseCache(b []byte) *cacheSec {
	r := reader{b: b}
	c := &cacheSec{ways: r.uv(), lru: r.uv(), count: r.uv()}
	for j := uint64(0); j < c.count; j++ {
		c.idx = append(c.idx, r.uv())
		at := r.b
		r.uv()    // addr
		r.take(4) // state, dirty, delayed, poison
		r.uv()    // epoch
		r.uv()    // data
		r.uv()    // LRU
		c.lines = append(c.lines, at[:len(at)-len(r.b)])
	}
	return c
}

func (c *cacheSec) bytes() []byte {
	b := append(append(uv(c.ways), uv(c.lru)...), uv(c.count)...)
	for j := range c.idx {
		b = append(append(b, uv(c.idx[j])...), c.lines[j]...)
	}
	return b
}

// engineSec is the engine section: clock, counters, pending events.
type engineSec struct {
	now, seq, total, target uint64
	evs                     []event
}

type event struct {
	at, seq uint64
	kind    byte
	id      int64
}

func parseEngine(b []byte) *engineSec {
	r := reader{b: b}
	e := &engineSec{now: r.uv(), seq: r.uv(), total: r.uv(), target: r.uv()}
	for n := r.uv(); n > 0; n-- {
		e.evs = append(e.evs, event{at: r.uv(), seq: r.uv(), kind: r.take(1)[0], id: r.iv()})
	}
	return e
}

func (e *engineSec) bytes() []byte {
	var b []byte
	for _, v := range []uint64{e.now, e.seq, e.total, e.target, uint64(len(e.evs))} {
		b = binary.AppendUvarint(b, v)
	}
	for _, ev := range e.evs {
		b = append(append(append(b, uv(ev.at)...), uv(ev.seq)...), ev.kind)
		b = binary.AppendVarint(b, ev.id)
	}
	return b
}

// TestDecodeSnapshotRejectsMalformed: a payload that passes the store's
// hash check can still disagree with the target machine's geometry or
// with its own framing. Each such payload must fail decode with an
// error; before the shape checks, most of them decoded and then
// panicked inside Restore's parallel workers, and the rest were
// accepted silently.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	payload := fft4Payload(t, 1)
	target := fft4(t, 4)
	l2 := func(d *doc, edit func(c *cacheSec)) {
		c := parseCache(d.proc0[1])
		edit(c)
		d.proc0[1] = c.bytes()
	}
	engine := func(d *doc, edit func(e *engineSec)) {
		e := parseEngine(d.secs[secEngine])
		edit(e)
		d.secs[secEngine] = e.bytes()
	}
	// want, where set, is a part of the error that names the check.
	cases := []struct {
		name, want string
		mutate     func(d *doc)
	}{
		{"unmutated", "", func(*doc) {}},
		{"L2 one line short", "", func(d *doc) {
			// The image describes a cache one way smaller than the target.
			l2(d, func(c *cacheSec) { c.ways-- })
		}},
		{"L2 way index at capacity", "", func(d *doc) {
			l2(d, func(c *cacheSec) { c.idx[len(c.idx)-1] = c.ways })
		}},
		{"L2 way indices out of order", "", func(d *doc) {
			l2(d, func(c *cacheSec) { c.idx[0], c.idx[1] = c.idx[1], c.idx[0] })
		}},
		{"L2 duplicate way index", "", func(d *doc) {
			l2(d, func(c *cacheSec) { c.idx[1] = c.idx[0] })
		}},
		{"L2 index and line counts differ", "", func(d *doc) {
			// The count claims one pair more than the section holds.
			l2(d, func(c *cacheSec) { c.count++ })
		}},
		{"event before now", "", func(d *doc) {
			engine(d, func(e *engineSec) { e.evs[0].at = e.now - 1 })
		}},
		{"event sequence above the counter", "", func(d *doc) {
			engine(d, func(e *engineSec) { e.evs[len(e.evs)-1].seq = e.seq + 1 })
		}},
		{"duplicate event sequence", "", func(d *doc) {
			// Event 1 repeats event 0's key; the sequence check runs first.
			engine(d, func(e *engineSec) { e.evs[1].at, e.evs[1].seq = e.evs[0].at, e.evs[0].seq })
		}},
		{"two step events for one processor", "", func(d *doc) {
			engine(d, func(e *engineSec) { e.evs[1].id = e.evs[0].id })
		}},
		{"two drain events for one processor", "", func(d *doc) {
			engine(d, func(e *engineSec) {
				for i := 0; i < 2; i++ {
					e.evs[i].kind, e.evs[i].id = 2, 0 // kind 2: drain
				}
			})
		}},
		{"events out of heap order", "", func(d *doc) {
			engine(d, func(e *engineSec) { e.evs[0], e.evs[1] = e.evs[1], e.evs[0] })
		}},
		{"events in heap order but not firing order", "firing order", func(d *doc) {
			// The last two events swap places: the list stays a valid
			// binary min-heap on (at, seq), which format 5 accepted,
			// but is no longer sorted.
			engine(d, func(e *engineSec) {
				n := len(e.evs)
				if n < 3 {
					t.Fatalf("the payload has %d pending events, want 3 or more", n)
				}
				e.evs[n-1], e.evs[n-2] = e.evs[n-2], e.evs[n-1]
				for i := 1; i < n; i++ {
					if p, c := e.evs[(i-1)/2], e.evs[i]; c.at < p.at || c.at == p.at && c.seq < p.seq {
						t.Fatalf("the mutated events are not a min-heap at position %d", i)
					}
				}
			})
		}},
		{"dep register set short", "", func(d *doc) {
			// The set count says one set fewer than the tracker holds.
			r := reader{b: d.proc0[2]}
			nlive, sets := r.uv(), r.uv()
			d.proc0[2] = append(append(uv(nlive), uv(sets-1)...), r.b...)
		}},
		{"null MyProducers bitset", "", func(d *doc) {
			// Set 0's MyProducers holds no words at all.
			r := reader{b: d.proc0[2]}
			head := append(append(uv(r.uv()), uv(r.uv())...), uv(r.uv())...) // NLive, set count, epoch
			for n := r.uv(); n > 0; n-- {
				r.uv()
			}
			d.proc0[2] = append(append(head, uv(0)...), r.b...)
		}},
		{"event tag ID 99", "", func(d *doc) {
			engine(d, func(e *engineSec) { e.evs[0].id = 99 })
		}},
		{"empty DRAM ReadFree", "", func(d *doc) {
			r := reader{b: d.secs[secDRAM]}
			for n := r.uv(); n > 0; n-- {
				r.uv()
			}
			d.secs[secDRAM] = append(uv(0), r.b...)
		}},
		{"stats Instructions short", "", func(d *doc) {
			var st map[string]json.RawMessage
			if err := json.Unmarshal(d.secs[secStats], &st); err != nil {
				t.Fatal(err)
			}
			var instr []uint64
			if err := json.Unmarshal(st["Instructions"], &instr); err != nil {
				t.Fatal(err)
			}
			st["Instructions"], _ = json.Marshal(instr[1:])
			d.secs[secStats], _ = json.Marshal(st)
		}},
		{"empty memory words", "", func(d *doc) {
			// The non-zero count stays; the word column goes.
			r := reader{b: d.secs[secMemory]}
			d.secs[secMemory] = append(uv(r.uv()), uv(0)...)
		}},
		{"L2 pair count beyond the cache's ways", "exceed the limit", func(d *doc) {
			l2(d, func(c *cacheSec) { c.count = c.ways + 1 })
		}},
		{"memory word count beyond the line table", "exceed the limit", func(d *doc) {
			r := reader{b: d.secs[secMemory]}
			d.secs[secMemory] = append(uv(r.uv()), uv(1<<40)...)
		}},
		{"more pending events than two per processor", "exceed the limit", func(d *doc) {
			engine(d, func(e *engineSec) {
				for len(e.evs) <= 2*4 {
					e.evs = append(e.evs, e.evs[0])
				}
			})
		}},
		{"log entry count beyond the bytes left", "overrun", func(d *doc) {
			r := reader{b: d.secs[secLog]}
			head := append(uv(r.uv()), uv(r.uv())...) // list count, list 0's epoch floor
			r.uv()
			d.secs[secLog] = append(append(head, uv(1<<40)...), r.b...)
		}},
		{"section length beyond the bytes left", "overruns", func(d *doc) {
			// The last section's length counts one byte the payload lacks.
			d.secs[secSchemeState] = append(d.secs[secSchemeState], 0)
			d.cut = 1
		}},
		{"trailing byte in a section", "trailing", func(d *doc) {
			d.secs[secDRAM] = append(d.secs[secDRAM], 0)
		}},
		{"processor ID beyond the machine", "no processor 4", func(d *doc) {
			// Line 0's directory owner is processor 4 of 4.
			r := reader{b: d.secs[secDir]}
			n := r.uv()
			r.iv()
			d.secs[secDir] = append(append(uv(n), binary.AppendVarint(nil, 4)...), r.b...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := splitPayload(t, payload)
			tc.mutate(d)
			data := d.bytes()
			s, err := target.DecodeSnapshot(data)
			if tc.name == "unmutated" {
				// The walkers alone must not be what fails.
				if !bytes.Equal(data, payload) {
					t.Fatal("split and join did not reproduce the payload")
				}
				if err != nil {
					t.Fatalf("payload rejected: %v", err)
				}
				if err := target.Restore(s); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatal("malformed payload decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the check (%q)", err, tc.want)
			}
			t.Log(err)
		})
	}
}

// TestDecodeSnapshotRejectsTruncation: a payload cut at any section
// boundary, or with a byte appended, fails decode.
func TestDecodeSnapshotRejectsTruncation(t *testing.T) {
	payload := fft4Payload(t, 1)
	target := fft4(t, 1)
	cuts := []int{0, 4, headLen}
	at := headLen
	for _, body := range sections(t, payload[headLen:]) {
		at += 4 + len(body)
		cuts = append(cuts, at-len(body), at)
	}
	for _, cut := range cuts[:len(cuts)-1] {
		if _, err := target.DecodeSnapshot(payload[:cut]); err == nil {
			t.Fatalf("payload cut at byte %d of %d decoded without error", cut, len(payload))
		}
	}
	if _, err := target.DecodeSnapshot(append(append([]byte(nil), payload...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("payload with a trailing byte: got error %v, want the trailing-bytes error", err)
	}
}

// TestDecodeSnapshotRejectsFormat4: a stored payload of format 4,
// JSON, fails decode on the magic; a payload with the binary magic and
// another format number, 4 or 5 (whose events were in heap order),
// fails on the format.
func TestDecodeSnapshotRejectsFormat4(t *testing.T) {
	m := fft4(t, 1)
	_, err := m.DecodeSnapshot([]byte(`{"format":4,"cfg":{"NProcs":4},"now":0,"procs":[]}`))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("format-4 JSON payload: got error %v, want the magic error", err)
	}
	for _, f := range []uint32{4, 5} {
		payload := fft4Payload(t, 1)
		binary.LittleEndian.PutUint32(payload[8:], f)
		_, err = m.DecodeSnapshot(payload)
		if want := fmt.Sprintf("snapshot format %d, want %d", f, machine.SnapshotFormat); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("format-%d header: got error %v, want the format error", f, err)
		}
	}
}

// FuzzDecodeSnapshot: whatever the bytes, DecodeSnapshot either returns
// an error or a snapshot that Restore accepts or refuses without
// panicking. The target has a third shard count, so the seeds also
// exercise decoding into a machine of another range split.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(fft4Payload(f, 1))
	f.Add(fft4Payload(f, 4))
	target := fft4(f, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := target.DecodeSnapshot(data)
		if err != nil {
			return
		}
		_ = target.Restore(s) // an error is a valid answer; a panic is not
	})
}
