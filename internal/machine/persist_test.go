package machine_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fft4 builds the FFT/4 quick Rebound machine the decoder tests target,
// with two-set caches: cache lines are most of a full-size payload
// (2.3 MB), which would hold the fuzzer to a few inputs a second.
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

// obj and arr walk a generically decoded payload.
func obj(v any, key string) map[string]any { return v.(map[string]any)[key].(map[string]any) }
func arr(v any, key string) []any          { return v.(map[string]any)[key].([]any) }

// TestDecodeSnapshotRejectsMalformed: a payload that is well-formed JSON
// and passes the store's hash check can still disagree with the target
// machine's geometry. Each such payload must fail decode with an error;
// before the shape checks, most of them decoded and then panicked inside
// Restore's parallel workers, and the rest were accepted silently.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	payload := fft4Payload(t, 1)
	target := fft4(t, 4)
	proc0 := func(doc map[string]any) any { return arr(doc, "procs")[0] }
	cases := []struct {
		name   string
		mutate func(doc map[string]any)
	}{
		{"unmutated", func(map[string]any) {}},
		{"L2 one line short", func(doc map[string]any) {
			l2 := obj(proc0(doc), "l2")
			l2["Lines"] = arr(l2, "Lines")[1:]
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
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.UseNumber() // keep 64-bit RNG states and stamps exact
			var doc map[string]any
			if err := dec.Decode(&doc); err != nil {
				t.Fatal(err)
			}
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
