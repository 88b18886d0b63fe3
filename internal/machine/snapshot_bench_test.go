package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
)

// BenchmarkSnapshotRestore times the snapshot plane on the FFT/16 quick
// Rebound cell, warmed the way a campaign warms it, at shard counts 1, 4
// and 8:
//
//   - snapshot: Machine.Snapshot into a reused capture;
//   - full_restore: Restore alternating between two captures of the
//     same point, so every call takes the full-copy path;
//   - delta_restore: Restore of the one capture the machine last
//     restored from, so every call takes the copy-on-write path.
//
// Both restores follow an untimed 20k-cycle continuation, as a
// campaign trial's restore follows its trial. Run it with a fixed
// iteration count, e.g.
//
//	go test -run '^$' -bench SnapshotRestore -benchtime 200x ./internal/machine/
//
// because the restores spend most of their wall time in the untimed
// continuation.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		spec := harness.Spec{App: "FFT", Procs: 16, Scheme: "Rebound", Scale: harness.Quick, Shards: shards}
		m, err := harness.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 4)
		if !m.SettleForSnapshot(sim.Cycle(400_000)) {
			b.Fatal("machine never reached a snapshot-safe point")
		}
		snap, other := new(machine.MachineSnapshot), new(machine.MachineSnapshot)
		if err := m.Snapshot(snap); err != nil {
			b.Fatal(err)
		}
		if err := m.Snapshot(other); err != nil {
			b.Fatal(err)
		}
		prefix := fmt.Sprintf("shards=%d/", shards)
		b.Run(prefix+"snapshot", func(b *testing.B) {
			s := new(machine.MachineSnapshot)
			for i := 0; i < b.N; i++ {
				if err := m.Snapshot(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"full_restore", func(b *testing.B) {
			caps := [2]*machine.MachineSnapshot{snap, other}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.RunCycles(20_000)
				b.StartTimer()
				if err := m.Restore(caps[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"delta_restore", func(b *testing.B) {
			if err := m.Restore(snap); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.RunCycles(20_000)
				b.StartTimer()
				if err := m.Restore(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmFFT16 returns the FFT/16 quick Rebound machine warmed the way a
// campaign warms it, and its encoded warm snapshot.
func warmFFT16(b *testing.B) (*machine.Machine, *machine.MachineSnapshot, []byte) {
	b.Helper()
	spec := harness.Spec{App: "FFT", Procs: 16, Scheme: "Rebound", Scale: harness.Quick}
	m, err := harness.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 4)
	if !m.SettleForSnapshot(sim.Cycle(400_000)) {
		b.Fatal("machine never reached a snapshot-safe point")
	}
	snap := new(machine.MachineSnapshot)
	if err := m.Snapshot(snap); err != nil {
		b.Fatal(err)
	}
	payload, err := m.EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	return m, snap, payload
}

// BenchmarkEncodeSnapshot and BenchmarkDecodeSnapshot time the
// persistent codec on the FFT/16 quick Rebound warm snapshot, the
// payload a campaign stores and every cold start loads. Their MB/s is
// payload bytes per second:
//
//	go test -run '^$' -bench 'codeSnapshot' -benchmem ./internal/machine/
func BenchmarkEncodeSnapshot(b *testing.B) {
	m, snap, payload := warmFFT16(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EncodeSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSnapshot(b *testing.B) {
	m, _, payload := warmFFT16(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DecodeSnapshot(payload); err != nil {
			b.Fatal(err)
		}
	}
}
