package store

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
)

// realSnapshotRecord returns the stored bytes of a real snapshot
// record: the FFT/4 quick Rebound machine at the campaign warm point.
func realSnapshotRecord(tb testing.TB) (snapKey string, data []byte) {
	tb.Helper()
	spec := testSpec()
	m, err := harness.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 4)
	if !m.SettleForSnapshot(sim.Cycle(400_000)) {
		tb.Fatal("machine never reached a snapshot-safe point")
	}
	s := new(machine.MachineSnapshot)
	if err := m.Snapshot(s); err != nil {
		tb.Fatal(err)
	}
	payload, err := m.EncodeSnapshot(s)
	if err != nil {
		tb.Fatal(err)
	}
	snapKey = "machine-snapshot|" + spec.Key()
	return snapKey, NewSnapshotRecord(snapKey, payload).Marshal()
}

// TestSnapshotRecordRejectsDamage: a stored snapshot record survives a
// round trip through PutSnapshot and GetSnapshot byte for byte, and a
// record cut short, with a flipped payload byte or stored under another
// key's address is refused on write and on read.
func TestSnapshotRecordRejectsDamage(t *testing.T) {
	snapKey, data := realSnapshotRecord(t)
	rec, err := ParseSnapshotRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSnapshot(snapKey, rec.Payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.GetSnapshot(snapKey)
	if err != nil || !ok || !bytes.Equal(got, rec.Payload) {
		t.Fatalf("GetSnapshot: ok=%t err=%v, payload equal %t", ok, err, bytes.Equal(got, rec.Payload))
	}
	ns, err := st.SnapshotNamespace()
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 1
	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)/2],
		"flipped":   flipped,
		"JSON":      []byte(`{"key":"x"}`),
	} {
		if err := ns.PutRaw(rec.Key(), bad); err == nil {
			t.Errorf("%s record written", name)
		}
		if _, err := SnapshotPayload(bad, snapKey); err == nil {
			t.Errorf("%s record read as a payload", name)
		}
	}
	if err := ns.PutRaw(SnapshotKeyOf("another key"), data); err == nil {
		t.Error("record written under another key's address")
	}
	if _, err := SnapshotPayload(data, "another key"); err == nil {
		t.Error("record read for another key")
	}
}

// FuzzSnapshotRecord: whatever the bytes, parsing and verifying a
// snapshot record returns an error or a payload that reproduces the
// record's hash, never a panic. Seeds are a real record and its
// truncations.
func FuzzSnapshotRecord(f *testing.F) {
	_, data := realSnapshotRecord(f)
	for _, n := range []int{0, 4, 8, 9, 40, 73, len(data) / 2, len(data) - 1, len(data)} {
		f.Add(data[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ParseSnapshotRecord(data)
		if err != nil {
			return
		}
		payload, err := SnapshotPayload(data, rec.SnapKey)
		if verr := rec.Verify(); (verr == nil) != (err == nil) {
			t.Fatalf("Verify says %v, SnapshotPayload says %v", verr, err)
		}
		if err == nil && (sha256.Sum256(payload) != rec.Sum || !bytes.Equal(payload, rec.Payload)) {
			t.Fatal("verified payload does not reproduce the record's hash")
		}
	})
}
