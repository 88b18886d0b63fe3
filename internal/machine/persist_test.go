package machine_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fft4 builds the FFT/4 quick Rebound machine the decoder tests target,
// with two-set caches. The payload persists only occupied cache ways,
// so small caches trim it from 557 KB to 375 KB: the fuzzer mutates
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

// obj and arr walk a generically decoded payload; num reads one of its
// numbers.
func obj(v any, key string) map[string]any { return v.(map[string]any)[key].(map[string]any) }
func arr(v any, key string) []any          { return v.(map[string]any)[key].([]any) }
func num(v any) uint64 {
	n, err := strconv.ParseUint(string(v.(json.Number)), 10, 64)
	if err != nil {
		panic(err)
	}
	return n
}

// decodeDoc decodes payload generically, keeping 64-bit RNG states and
// stamps exact.
func decodeDoc(tb testing.TB, payload []byte) map[string]any {
	tb.Helper()
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestDecodeSnapshotRejectsMalformed: a payload that is well-formed JSON
// and passes the store's hash check can still disagree with the target
// machine's geometry. Each such payload must fail decode with an error;
// before the shape checks, most of them decoded and then panicked inside
// Restore's parallel workers, and the rest were accepted silently.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	payload := fft4Payload(t, 1)
	target := fft4(t, 4)
	proc0 := func(doc map[string]any) any { return arr(doc, "procs")[0] }
	l2 := func(doc map[string]any) map[string]any { return obj(proc0(doc), "l2") }
	event := func(doc map[string]any, i int) map[string]any { return arr(doc, "events")[i].(map[string]any) }
	cases := []struct {
		name   string
		mutate func(doc map[string]any)
	}{
		{"unmutated", func(map[string]any) {}},
		{"L2 one line short", func(doc map[string]any) {
			// The image describes a cache one way smaller than the target.
			l2(doc)["ways"] = num(l2(doc)["ways"]) - 1
		}},
		{"L2 way index at capacity", func(doc map[string]any) {
			idx := arr(l2(doc), "index")
			idx[len(idx)-1] = l2(doc)["ways"]
		}},
		{"L2 way indices out of order", func(doc map[string]any) {
			idx := arr(l2(doc), "index")
			idx[0], idx[1] = idx[1], idx[0]
		}},
		{"L2 duplicate way index", func(doc map[string]any) {
			idx := arr(l2(doc), "index")
			idx[1] = idx[0]
		}},
		{"L2 index and line counts differ", func(doc map[string]any) {
			l2(doc)["lines"] = arr(l2(doc), "lines")[1:]
		}},
		{"event before now", func(doc map[string]any) {
			event(doc, 0)["At"] = num(doc["now"]) - 1
		}},
		{"event sequence above the counter", func(doc map[string]any) {
			evs := arr(doc, "events")
			event(doc, len(evs)-1)["Seq"] = num(doc["seq"]) + 1
		}},
		{"duplicate event sequence", func(doc map[string]any) {
			// Equal keys at parent and child keep the heap order valid.
			event(doc, 1)["At"], event(doc, 1)["Seq"] = event(doc, 0)["At"], event(doc, 0)["Seq"]
		}},
		{"two step events for one processor", func(doc map[string]any) {
			obj(event(doc, 1), "Tag")["ID"] = obj(event(doc, 0), "Tag")["ID"]
		}},
		{"two drain events for one processor", func(doc map[string]any) {
			for i := 0; i < 2; i++ {
				event(doc, i)["Tag"] = map[string]any{"Kind": 2, "ID": 0} // Kind 2: drain
			}
		}},
		{"events out of heap order", func(doc map[string]any) {
			evs := arr(doc, "events")
			evs[0], evs[1] = evs[1], evs[0]
		}},
		{"dep register set short", func(doc map[string]any) {
			deps := obj(proc0(doc), "deps")
			deps["Sets"] = arr(deps, "Sets")[1:]
		}},
		{"null MyProducers bitset", func(doc map[string]any) {
			arr(obj(proc0(doc), "deps"), "Sets")[0].(map[string]any)["MyProducers"] = nil
		}},
		{"event tag ID 99", func(doc map[string]any) {
			obj(arr(doc, "events")[0], "Tag")["ID"] = 99
		}},
		{"empty DRAM ReadFree", func(doc map[string]any) {
			obj(doc, "dram")["ReadFree"] = []any{}
		}},
		{"stats Instructions short", func(doc map[string]any) {
			st := obj(doc, "st")
			st["Instructions"] = arr(st, "Instructions")[1:]
		}},
		{"empty memory words", func(doc map[string]any) {
			obj(doc, "mem")["Words"] = []any{}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := decodeDoc(t, payload)
			tc.mutate(doc)
			data, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			s, err := target.DecodeSnapshot(data)
			if tc.name == "unmutated" {
				// The generic re-encoding alone must not be what fails.
				if err != nil {
					t.Fatalf("re-encoded payload rejected: %v", err)
				}
				if err := target.Restore(s); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatal("malformed payload decoded without error")
			}
			t.Log(err)
		})
	}
}

// TestDecodeSnapshotRejectsFormat3: a stored payload of the previous
// format, whose cache images hold every way, fails decode with the
// format error rather than loading.
func TestDecodeSnapshotRejectsFormat3(t *testing.T) {
	doc := decodeDoc(t, fft4Payload(t, 1))
	doc["format"] = 3
	for _, p := range arr(doc, "procs") {
		for _, level := range []string{"l1", "l2"} {
			ci := obj(p, level)
			lines := make([]any, num(ci["ways"]))
			for i := range lines {
				lines[i] = map[string]any{"addr": 0, "state": 0, "data": map[string]any{"Val": 0, "Poison": false}}
			}
			for j, i := range arr(ci, "index") {
				lines[num(i)] = arr(ci, "lines")[j]
			}
			p.(map[string]any)[level] = map[string]any{"Lines": lines, "LruTick": ci["lru_tick"]}
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fft4(t, 1).DecodeSnapshot(data)
	if err == nil || !strings.Contains(err.Error(), "snapshot format 3, want 4") {
		t.Fatalf("format-3 payload: got error %v, want the format error", err)
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
