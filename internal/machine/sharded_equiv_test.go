// The shard-count equivalence suite (external test package: it drives
// the machine through the harness and campaign layers, which import
// machine).
//
// The shard count is a parallelism axis, never a results axis:
// for every scheme, every shard count and every GOMAXPROCS setting the
// machine must produce byte-identical simulated state, stats and
// campaign reports. These tests run under -race in CI at GOMAXPROCS 1,
// 2 and the runner's core count (see .github/workflows/ci.yml), which is what makes the parallel
// snapshot/restore plane's disjointness claim load-bearing rather than
// asserted.
package machine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

var shardCounts = []int{1, 2, 4}

// equivFingerprint renders everything a run could diverge in: clock,
// instruction count, log population, stats and the full memory image.
func equivFingerprint(m *machine.Machine) string {
	return fmt.Sprintf("cycle=%d instr=%d log=%d stats=%s mem=%v",
		m.Now(), m.TotalInstructions(), m.Ctrl.Log().Len(),
		m.St.Snapshot(), m.Ctrl.Memory().Snapshot())
}

// TestShardEquivalenceCells: Figure 6.2-style cells (FFT under every
// scheme) run to completion at shard counts 1, 2 and 4 must be
// byte-identical in state and stats.
func TestShardEquivalenceCells(t *testing.T) {
	sc := harness.Scale{
		Name: "equiv", ProcsLarge: 8, ProcsSmall: 8,
		InstrPerProc: 60_000, Interval: 15_000, DetectLatency: 6_000, Seed: 1,
	}
	for _, scheme := range harness.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			var ref string
			for _, shards := range shardCounts {
				spec := harness.Spec{App: "FFT", Procs: 8, Scheme: scheme, Scale: sc, Shards: shards}
				if err := spec.Validate(); err != nil {
					t.Fatal(err)
				}
				m, err := harness.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				m.Run(sc.InstrPerProc * uint64(spec.Procs))
				m.RunCycles(50_000)
				m.FinalizeStats()
				fp := equivFingerprint(m)
				if shards == 1 {
					ref = fp
				} else if fp != ref {
					t.Fatalf("shards=%d diverged from shards=1", shards)
				}
			}
		})
	}
}

// TestShardEquivalenceCampaign: a fault-injected campaign (restore-
// per-trial through the snapshot engine) must produce a byte-identical
// Report across shard counts and GOMAXPROCS settings. The report's Key
// and Spec are neutralized before comparison — they carry the shard
// axis by design (different cells of the same physics) — but every
// trial record, latency summary and availability figure must match to
// the last bit.
func TestShardEquivalenceCampaign(t *testing.T) {
	widths := []int{1, runtime.NumCPU()}
	var ref []byte
	for _, shards := range shardCounts {
		for _, width := range widths {
			name := fmt.Sprintf("shards=%d/gomaxprocs=%d", shards, width)
			t.Run(name, func(t *testing.T) {
				old := runtime.GOMAXPROCS(width)
				defer runtime.GOMAXPROCS(old)
				spec := campaign.Spec{
					Base:   harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick, Shards: shards},
					Trials: 6, Faults: 2, Window: 60_000, Seed: 1,
				}
				rep, err := campaign.New(harness.NewRunner(0), nil).Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				rep.Key = ""
				rep.Spec = campaign.Spec{}
				data, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = data
				} else if !bytes.Equal(data, ref) {
					t.Fatalf("campaign report diverged from the shards=1/gomaxprocs=1 reference")
				}
			})
		}
	}
}

// TestSharded256ProcSnapshotSmoke is the scale smoke test: a 256-
// processor, 8-shard machine warms, settles, snapshots; the snapshot
// survives a divergent continuation and restores byte-identically; the
// persistent codec round-trips it; and the parallel save plane is
// GOMAXPROCS-independent.
func TestSharded256ProcSnapshotSmoke(t *testing.T) {
	sc := harness.Scale{
		Name: "smoke256", ProcsLarge: 256, ProcsSmall: 256,
		InstrPerProc: 4_000, Interval: 2_000, DetectLatency: 1_500, Seed: 1,
	}
	spec := harness.Spec{App: "FFT", Procs: 256, Scheme: "Rebound", Scale: sc, Shards: 8}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := harness.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	budget := sc.InstrPerProc * uint64(spec.Procs)
	m.Run(budget / 2)
	if !m.SettleForSnapshot(sim.Cycle(4_000_000)) {
		t.Fatal("256-proc machine never reached a snapshot-safe point")
	}

	snap := new(machine.MachineSnapshot)
	if err := m.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	fp0 := equivFingerprint(m)
	enc1, err := m.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc1) < 12 || binary.LittleEndian.Uint32(enc1[8:]) != machine.SnapshotFormat {
		t.Fatalf("sharded snapshot did not encode as format %d", machine.SnapshotFormat)
	}

	// The parallel save fans per-proc and per-range tasks across
	// GOMAXPROCS workers over disjoint state; the captured bytes must
	// not depend on the worker count.
	old := runtime.GOMAXPROCS(1)
	seq := new(machine.MachineSnapshot)
	err = m.Snapshot(seq)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	encSeq, err := m.EncodeSnapshot(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, encSeq) {
		t.Fatal("snapshot bytes differ between GOMAXPROCS=1 and the parallel save")
	}

	// Diverge, then restore: the machine must land exactly back on the
	// captured state. (The re-captured snapshot's encoding is not
	// byte-compared here: the interned line table is shared and
	// append-only, so a diverged run legitimately grows every table —
	// restore resets the grown tails to defaults, which is behaviour-
	// identical but larger on the wire. The byte-level claims live on
	// the same-point captures above and the fresh-machine path below.)
	m.Run(budget / 2)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if equivFingerprint(m) != fp0 {
		t.Fatal("restore did not return the machine to the captured state")
	}

	// Persistent round trip into a fresh machine of the same shape:
	// decode, re-encode, restore, re-capture — all byte-identical.
	m2, err := harness.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap3, err := m2.DecodeSnapshot(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc3, err := m2.EncodeSnapshot(snap3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc3) {
		t.Fatal("decode + re-encode is not byte-identical")
	}
	if err := m2.Restore(snap3); err != nil {
		t.Fatal(err)
	}
	if equivFingerprint(m2) != fp0 {
		t.Fatal("machine restored from the persistent codec diverged from the captured state")
	}
	recap := new(machine.MachineSnapshot)
	if err := m2.Snapshot(recap); err != nil {
		t.Fatal(err)
	}
	enc4, err := m2.EncodeSnapshot(recap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc4) {
		t.Fatal("fresh machine restore + re-snapshot is not byte-identical to the persisted snapshot")
	}
}

// TestSnapshotBytesShardIndependent pins the persist codec's one
// layout (machine/persist.go): the shard count is a parallelism axis only,
// so a snapshot of the same machine encodes to the same bytes at every
// shard count, Shards 0 and 1 included, and never names the axis.
func TestSnapshotBytesShardIndependent(t *testing.T) {
	encodeAt := func(shards int) []byte {
		t.Helper()
		spec := harness.Spec{App: "FFT", Procs: 8, Scheme: "Rebound", Scale: harness.Quick, Shards: shards}
		m, err := harness.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 4)
		if !m.SettleForSnapshot(sim.Cycle(400_000)) {
			t.Fatal("machine never reached a snapshot-safe point")
		}
		s := new(machine.MachineSnapshot)
		if err := m.Snapshot(s); err != nil {
			t.Fatal(err)
		}
		enc, err := m.EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		// Round trip through the decoder on the same machine shape.
		dec, err := m.DecodeSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := m.EncodeSnapshot(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("shards=%d: decode + re-encode is not byte-identical", shards)
		}
		return enc
	}

	enc0 := encodeAt(0)
	if bytes.Contains(enc0, []byte(`"Shards"`)) || bytes.Contains(enc0, []byte(`"shards"`)) {
		t.Fatal("snapshot encoding leaks the shard axis")
	}
	for _, shards := range []int{1, 2, 4} {
		if !bytes.Equal(enc0, encodeAt(shards)) {
			t.Fatalf("Shards=0 and Shards=%d persisted differently; snapshot bytes must be shard-independent", shards)
		}
	}
}

// TestShardsNotPowerOfTwoRuns: machine.New takes any range count (the
// power-of-two rule lives in harness.Spec.Validate, which answers a
// request with an error). A Shards: 3 machine builds, runs to the same
// state as Shards: 1, and its three-way range-split snapshot plane
// restores it exactly, by the full and the delta path.
func TestShardsNotPowerOfTwoRuns(t *testing.T) {
	run := func(shards int) (*machine.Machine, string) {
		t.Helper()
		spec := harness.Spec{App: "FFT", Procs: 8, Scheme: "Rebound", Scale: harness.Quick}
		sch, err := harness.SchemeFor(spec.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig(spec.Procs)
		cfg.CkptInterval, cfg.DetectLatency = spec.Scale.Interval, spec.Scale.DetectLatency
		cfg.Seed, cfg.Shards = harness.DeriveSeed(spec), shards
		m := machine.New(cfg, workload.ByName(spec.App), sch)
		m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 4)
		if !m.SettleForSnapshot(sim.Cycle(400_000)) {
			t.Fatal("machine never reached a snapshot-safe point")
		}
		return m, equivFingerprint(m)
	}
	_, ref := run(1)
	m, fp := run(3)
	if fp != ref {
		t.Fatal("Shards: 3 diverged from Shards: 1")
	}
	snap := new(machine.MachineSnapshot)
	if err := m.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	// The continuation from the captured point is the reference: a
	// restore that lost directory or log state would time it
	// differently.
	m.RunCycles(50_000)
	cont := equivFingerprint(m)
	for _, path := range []string{"full", "delta"} {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if equivFingerprint(m) != fp {
			t.Fatalf("%s restore at Shards: 3 did not return to the captured state", path)
		}
		if m.RunCycles(50_000); equivFingerprint(m) != cont {
			t.Fatalf("run after the %s restore at Shards: 3 diverged", path)
		}
	}
}

// TestSnapshotBytesGolden pins the persisted bytes of format
// SnapshotFormat: the FFT/4 quick Rebound payload at the campaign warm
// point, at Shards 0, 1, 2 and 4. A change here must come with a
// SnapshotFormat bump (stored snapshots would otherwise misload) or be
// an intended change to what the machine simulates.
func TestSnapshotBytesGolden(t *testing.T) {
	const (
		wantLen = 170_569
		wantSHA = "e246b338e98f70df1d48866092de5dbdfe186443d05ed4744802c3d642da5aed"
	)
	for _, shards := range []int{0, 1, 2, 4} {
		spec := harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick, Shards: shards}
		m, err := harness.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs) / 4)
		if !m.SettleForSnapshot(sim.Cycle(400_000)) {
			t.Fatal("machine never reached a snapshot-safe point")
		}
		s := new(machine.MachineSnapshot)
		if err := m.Snapshot(s); err != nil {
			t.Fatal(err)
		}
		enc, err := m.EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != wantLen || sum != wantSHA {
			t.Fatalf("shards=%d: payload %d bytes sha256 %s, want %d bytes %s", shards, len(enc), sum, wantLen, wantSHA)
		}
	}
}
