package harness_test

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The machine snapshot/restore equivalence suite: for every registered
// scheme, a machine restored from a post-warmup snapshot must be
// indistinguishable — stats, memory image, clock, instruction count —
// from the machine the snapshot was taken of, both on a fault-free
// continuation and under an injected fault scenario. This is the
// correctness bar underneath the campaign engine's warm-once/
// restore-per-trial fast path.

const snapSettleLimit = sim.Cycle(400_000)

func snapSpec(scheme string) harness.Spec {
	return harness.Spec{App: "FFT", Procs: 8, Scheme: scheme, Scale: harness.Quick}
}

// warmAndSnap builds spec's machine, warms it a quarter of its budget,
// settles to a snapshot-safe point and captures it.
func warmAndSnap(t *testing.T, spec harness.Spec) (*machine.Machine, *machine.MachineSnapshot) {
	t.Helper()
	m, err := harness.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	budget := spec.Scale.InstrPerProc * uint64(spec.Procs)
	m.Run(budget / 4)
	if !m.SettleForSnapshot(snapSettleLimit) {
		t.Fatalf("%s: machine never reached a snapshot-safe point", spec.Scheme)
	}
	snap := new(machine.MachineSnapshot)
	if err := m.Snapshot(snap); err != nil {
		t.Fatalf("%s: %v", spec.Scheme, err)
	}
	return m, snap
}

// fingerprint renders everything a continuation could diverge in.
func fingerprint(m *machine.Machine) string {
	memImage := fmt.Sprintf("%v", m.Ctrl.Memory().Snapshot())
	return fmt.Sprintf("cycle=%d instr=%d log=%d stats=%s mem=%s",
		m.Now(), m.TotalInstructions(), m.Ctrl.Log().Len(), m.St.Snapshot(), memImage)
}

// runToEnd is the continuation both machines execute: optionally a
// fault scenario, then the rest of the budget.
func runToEnd(m *machine.Machine, spec harness.Spec, withFaults bool) {
	if withFaults {
		inj := fault.New(m, fault.Spec{Faults: 2, Window: 60_000, Seed: 0xfeed})
		inj.Launch()
	}
	budget := spec.Scale.InstrPerProc * uint64(spec.Procs)
	if done := m.TotalInstructions(); done < budget {
		m.Run(budget - done)
	}
	m.RunCycles(50_000) // let recoveries and drains settle identically
	m.FinalizeStats()
}

func TestSnapshotRestoreEquivalenceAllSchemes(t *testing.T) {
	for _, scheme := range harness.SchemeNames() {
		for _, withFaults := range []bool{false, true} {
			name := scheme + "/fault-free"
			if withFaults {
				name = scheme + "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				spec := snapSpec(scheme)
				warm, snap := warmAndSnap(t, spec)

				// Restore into a cold machine that never executed an
				// instruction; run both to the end of the budget.
				cold, err := harness.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := cold.Restore(snap); err != nil {
					t.Fatal(err)
				}
				runToEnd(warm, spec, withFaults)
				runToEnd(cold, spec, withFaults)
				if got, want := fingerprint(cold), fingerprint(warm); got != want {
					t.Errorf("restored machine diverged from the one it was captured from\n got: %.240s\nwant: %.240s", got, want)
				}
			})
		}
	}
}

// TestSnapshotDoubleRestore proves a snapshot is reusable: restoring
// the same image twice into the same (dirty) machine yields identical
// continuations — the campaign engine restores one image thousands of
// times.
func TestSnapshotDoubleRestore(t *testing.T) {
	for _, scheme := range []string{"Rebound", "Global_DWB"} {
		t.Run(scheme, func(t *testing.T) {
			spec := snapSpec(scheme)
			m, snap := warmAndSnap(t, spec)

			runToEnd(m, spec, true)
			first := fingerprint(m)

			// The machine is now dirty (post-trial); rewind and rerun.
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			runToEnd(m, spec, true)
			second := fingerprint(m)
			if first != second {
				t.Errorf("second restore diverged from the first\n got: %.240s\nwant: %.240s", second, first)
			}

			// And a third time with a DIFFERENT continuation seed, to
			// prove restores do not leak previous-trial state into the
			// snapshot image itself.
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			inj := fault.New(m, fault.Spec{Faults: 1, Window: 30_000, Seed: 0xbeef})
			inj.Launch()
			m.RunCycles(200_000)
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			runToEnd(m, spec, true)
			if third := fingerprint(m); third != first {
				t.Errorf("restore after a divergent trial leaked state\n got: %.240s\nwant: %.240s", third, first)
			}
		})
	}
}

// TestSnapshotCarriesLogAblationFlag: Log.AlwaysLog is behaviour, not
// configuration the Config-equality guard can see — a snapshot of a
// log-ablation machine restored into a default-built machine must keep
// logging every writeback.
func TestSnapshotCarriesLogAblationFlag(t *testing.T) {
	spec := snapSpec("Rebound")
	spec.LogAllWB = true
	warm, snap := warmAndSnap(t, spec)

	plain := spec
	plain.LogAllWB = false
	cold, err := harness.Build(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !cold.Ctrl.Log().AlwaysLog {
		t.Fatal("restore dropped the AlwaysLog ablation flag")
	}
	runToEnd(warm, spec, false)
	runToEnd(cold, spec, false)
	if got, want := fingerprint(cold), fingerprint(warm); got != want {
		t.Errorf("ablation machine restored into a default build diverged\n got: %.240s\nwant: %.240s", got, want)
	}
}

// TestSnapshotRefusesMismatchedConfig: restoring across machine shapes
// must fail loudly, never alias state.
func TestSnapshotRefusesMismatchedConfig(t *testing.T) {
	_, snap := warmAndSnap(t, snapSpec("Rebound"))
	other, err := harness.Build(harness.Spec{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: harness.Quick})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore into a machine with a different config succeeded")
	}
	var empty machine.MachineSnapshot
	m, _ := warmAndSnap(t, snapSpec("Rebound"))
	if err := m.Restore(&empty); err == nil {
		t.Fatal("restore from an empty snapshot succeeded")
	}
}

// TestLineTableAdoptPrefixMismatch pins the aliasing guard the restore
// path relies on: a table whose interning history diverged from the
// snapshot must be rejected.
func TestLineTableAdoptPrefixMismatch(t *testing.T) {
	a := mem.NewLineTable()
	a.ID(10)
	a.ID(20)
	if err := a.AdoptPrefix([]uint64{10, 20, 30}); err != nil {
		t.Fatalf("compatible prefix rejected: %v", err)
	}
	if got, ok := a.Lookup(30); !ok || got != 2 {
		t.Fatalf("AdoptPrefix did not intern the tail: id=%d ok=%v", got, ok)
	}
	if err := a.AdoptPrefix([]uint64{10, 99}); err == nil {
		t.Fatal("diverged prefix accepted")
	}
	// An address listed twice, within the new tail or against an ID the
	// table already holds, would map two IDs onto one line. It is an
	// error, and the table is left as it was.
	for _, addrs := range [][]uint64{{10, 20, 30, 40, 40}, {10, 20, 30, 40, 20}} {
		if err := a.AdoptPrefix(addrs); err == nil {
			t.Fatalf("AdoptPrefix(%v) accepted a duplicate", addrs)
		}
		if _, ok := a.Lookup(40); ok || a.Len() != 3 {
			t.Fatalf("rejected AdoptPrefix(%v) changed the table: %d lines", addrs, a.Len())
		}
	}
	b := mem.NewLineTable()
	if err := b.AdoptPrefix([]uint64{10, 20, 10}); err == nil {
		t.Fatal("AdoptPrefix into an empty table accepted a duplicate")
	}
	if b.Len() != 0 {
		t.Fatalf("rejected AdoptPrefix left %d lines", b.Len())
	}
}
