package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/store"
)

func trialJSON(t *testing.T, tr Trial) []byte {
	t.Helper()
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotCodecRoundTrip pins the persistent codec against silent
// lossiness: a decoded snapshot must re-encode byte-identically AND
// behave identically. The behavioural leg is the load-bearing one —
// encode(decode(x)) == encode(x) holds even when both encodes drop the
// same unexported field (that symmetry is exactly how cache.Line's LRU
// stamp once went missing), so the test also runs one full fault trial
// from the original and the decoded snapshot and diffs every recorded
// field. The cross-shard legs decode a payload into a machine of
// another shard count, which the one flat layout must make invisible.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, leg := range []struct{ from, to int }{{0, 0}, {4, 0}, {0, 4}} {
		t.Run(fmt.Sprintf("shards%d-to-%d", leg.from, leg.to), func(t *testing.T) {
			spec := testSpec(4)
			spec.Base.Shards = leg.from
			m1, err := harness.Build(spec.Base)
			if err != nil {
				t.Fatal(err)
			}
			if !warm(m1, spec) {
				t.Fatal("warmup reached no snapshot-safe point")
			}
			var snap machine.MachineSnapshot
			if err := m1.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			payload, err := m1.EncodeSnapshot(&snap)
			if err != nil {
				t.Fatal(err)
			}

			spec.Base.Shards = leg.to
			m2, err := harness.Build(spec.Base)
			if err != nil {
				t.Fatal(err)
			}
			snap2, err := m2.DecodeSnapshot(payload)
			if err != nil {
				t.Fatal(err)
			}
			payload2, err := m2.EncodeSnapshot(snap2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, payload2) {
				t.Fatal("decoded snapshot does not re-encode byte-identically")
			}

			if err := m2.Restore(snap2); err != nil {
				t.Fatal(err)
			}
			tr2 := runPhase(m2, spec, 3)
			if err := m1.Restore(&snap); err != nil {
				t.Fatal(err)
			}
			tr1 := runPhase(m1, spec, 3)
			if a, b := trialJSON(t, tr1), trialJSON(t, tr2); !bytes.Equal(a, b) {
				t.Fatalf("decoded snapshot diverges behaviourally:\n  orig:    %s\n  decoded: %s", a, b)
			}
		})
	}
}

// TestStoredSnapshotColdStart is the cold-start acceptance check: a
// runner on a fresh process (modelled as a second TrialRunner on the
// same store) must reach its first trial from one store read — zero
// warmups — and produce trials byte-identical to both the warmed
// runner's and the fresh-build reference. A corrupted stored snapshot
// must read as a miss (re-warm, overwrite), never as state.
func TestStoredSnapshotColdStart(t *testing.T) {
	spec := testSpec(4)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	a := NewTrialRunnerStored(spec, st)
	trA, err := a.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if wu, ld, _, fr := a.Counters(); wu != 1 || ld != 0 || fr != 0 {
		t.Fatalf("warmed runner: warmups=%d loads=%d fresh=%d, want 1/0/0", wu, ld, fr)
	}

	b := NewTrialRunnerStored(spec, st)
	trB, err := b.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if wu, ld, _, fr := b.Counters(); wu != 0 || ld != 1 || fr != 0 {
		t.Fatalf("cold-start runner: warmups=%d loads=%d fresh=%d, want 0/1/0", wu, ld, fr)
	}

	ref, err := RunTrial(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb, jr := trialJSON(t, trA), trialJSON(t, trB), trialJSON(t, ref)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("cold-start trial differs from warmed trial:\n  warmed: %s\n  loaded: %s", ja, jb)
	}
	if !bytes.Equal(ja, jr) {
		t.Fatalf("snapshot-engine trial differs from fresh-build reference:\n  engine: %s\n  fresh:  %s", ja, jr)
	}

	// Corrupt the stored snapshot record in place; the next runner must
	// refuse it, re-warm, and overwrite it with a good one.
	recPath := filepath.Join(st.Dir(), "snapshots", store.SnapshotKeyOf(warmKey(spec))+".snap")
	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewTrialRunnerStored(spec, st)
	trC, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if wu, ld, _, _ := c.Counters(); wu != 1 || ld != 0 {
		t.Fatalf("corrupt snapshot: warmups=%d loads=%d, want re-warm (1/0)", wu, ld)
	}
	if !bytes.Equal(trialJSON(t, trC), ja) {
		t.Fatal("trial after corrupt-snapshot re-warm differs")
	}
	d := NewTrialRunnerStored(spec, st)
	if _, err := d.Run(3); err != nil {
		t.Fatal(err)
	}
	if wu, ld, _, _ := d.Counters(); wu != 0 || ld != 1 {
		t.Fatalf("re-warm did not repair the stored snapshot: warmups=%d loads=%d", wu, ld)
	}
}

// TestStoredSnapshotSharedAcrossShardCounts: the persisted snapshot
// is the same at every shard count, so a Shards: 4 runner cold-starts
// from the snapshot a Shards: 0 runner stored — one load, zero warmups
// — and its trials are byte-identical to the unsharded runner's.
func TestStoredSnapshotSharedAcrossShardCounts(t *testing.T) {
	spec := testSpec(4)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewTrialRunnerStored(spec, st)
	sharded := spec
	sharded.Base.Shards = 4
	split := NewTrialRunnerStored(sharded, st)
	for i := 0; i < 3; i++ {
		a, err := flat.Run(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := split.Run(i)
		if err != nil {
			t.Fatal(err)
		}
		if ja, jb := trialJSON(t, a), trialJSON(t, b); !bytes.Equal(ja, jb) {
			t.Fatalf("trial %d differs across shard counts:\n  shards=0: %s\n  shards=4: %s", i, ja, jb)
		}
	}
	if wu, ld, _, fr := split.Counters(); wu != 0 || ld != 1 || fr != 0 {
		t.Fatalf("Shards: 4 runner: warmups=%d loads=%d fresh=%d, want 0/1/0", wu, ld, fr)
	}
}

// TestCampaignResumeDetectsTornTrialRecord injects the two write
// failures a crashed campaign can leave behind — a torn (truncated)
// trial record and a stale record from a different campaign definition
// (wrong derived seed) — and requires resume to re-run exactly those
// trials and still produce the byte-identical Report.
func TestCampaignResumeDetectsTornTrialRecord(t *testing.T) {
	spec := testSpec(6)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(harness.NewRunner(0), st).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep)

	dir := filepath.Join(st.Dir(), nsCampaigns, KeyOf(spec))
	// Drop the report so resume must rebuild it from trial records.
	if err := os.Remove(filepath.Join(dir, reportName+".json")); err != nil {
		t.Fatal(err)
	}
	// Trial 2: torn write — the record is truncated mid-JSON.
	p2 := filepath.Join(dir, trialName(2)+".json")
	data, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Trial 4: stale record — well-formed JSON, wrong derived seed.
	p4 := filepath.Join(dir, trialName(4)+".json")
	var tr4 Trial
	if err := json.Unmarshal(mustRead(t, p4), &tr4); err != nil {
		t.Fatal(err)
	}
	tr4.Seed++
	stale, err := json.Marshal(&tr4)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p4, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	eng := New(harness.NewRunner(0), st)
	var mu sync.Mutex
	restored := -1
	eng.OnProgress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if restored == -1 {
			restored = done
		}
	}
	res, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The first progress note reports the trials restored from the
	// store: both corrupted records must have been rejected.
	if restored != spec.Trials-2 {
		t.Fatalf("resume restored %d trials, want %d (both corrupt records rejected)",
			restored, spec.Trials-2)
	}
	if got := reportJSON(t, res); !bytes.Equal(got, want) {
		t.Fatal("resumed report differs after corrupt-record re-run")
	}
	// The re-run must have repaired both records in place.
	for _, i := range []int{2, 4} {
		var tr Trial
		if err := json.Unmarshal(mustRead(t, filepath.Join(dir, trialName(i)+".json")), &tr); err != nil {
			t.Fatalf("trial %d record not repaired: %v", i, err)
		}
		if tr.Index != i || tr.Seed != TrialSeed(spec, i) {
			t.Fatalf("trial %d record repaired with wrong identity", i)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPrewarmForksNotWarmups pins the fix for the flat-scaling bug:
// readying a runner for n workers must cost exactly one warmup plus
// n-1 forks. Before the fork engine, each worker silently fell back to
// its own build+warm — this test fails on that regression because the
// warmup counter (not wall clock) is what it asserts.
func TestPrewarmForksNotWarmups(t *testing.T) {
	spec := testSpec(8)
	tr := NewTrialRunner(spec)
	if err := tr.Prewarm(4); err != nil {
		t.Fatal(err)
	}
	if wu, ld, fk, fr := tr.Counters(); wu != 1 || ld != 0 || fk != 3 || fr != 0 {
		t.Fatalf("Prewarm(4): warmups=%d loads=%d forks=%d fresh=%d, want 1/0/3/0", wu, ld, fk, fr)
	}
	// Running the campaign's trials afterwards must reuse the pool:
	// no further warmups, no forks beyond the pool, no fresh fallback.
	for i := 0; i < spec.Trials; i++ {
		want, err := RunTrial(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Run(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trialJSON(t, want), trialJSON(t, got)) {
			t.Fatalf("trial %d diverged from fresh-build reference", i)
		}
	}
	if wu, _, fk, fr := tr.Counters(); wu != 1 || fk != 3 || fr != 0 {
		t.Fatalf("after %d trials: warmups=%d forks=%d fresh=%d, want 1/3/0", spec.Trials, wu, fk, fr)
	}
}

// TestForkMatchesRestoreAcrossSchemes is the per-scheme byte-identity
// suite for the fork engine itself: for every registered scheme, a
// trial run on a machine forked from the warm snapshot must equal the
// same trial run on the snapshot's own machine after Restore, and both
// must equal the fresh build-and-warm reference.
func TestForkMatchesRestoreAcrossSchemes(t *testing.T) {
	for _, scheme := range harness.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			spec := testSpec(2)
			spec.Base.Scheme = scheme
			parent, err := harness.Build(spec.Base)
			if err != nil {
				t.Fatal(err)
			}
			if !warm(parent, spec) {
				t.Skipf("scheme %s reaches no snapshot-safe point; covered by the fresh fallback", scheme)
			}
			var snap machine.MachineSnapshot
			if err := parent.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			sch, err := harness.SchemeFor(scheme)
			if err != nil {
				t.Fatal(err)
			}
			child, err := parent.Fork(&snap, sch)
			if err != nil {
				t.Fatal(err)
			}
			forked := runPhase(child, spec, 1)
			if err := parent.Restore(&snap); err != nil {
				t.Fatal(err)
			}
			restored := runPhase(parent, spec, 1)
			ref, err := RunTrial(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			fj, sj, rj := trialJSON(t, forked), trialJSON(t, restored), trialJSON(t, ref)
			if !bytes.Equal(fj, sj) {
				t.Fatalf("forked trial differs from restored trial\n  fork:    %s\n  restore: %s", fj, sj)
			}
			if !bytes.Equal(fj, rj) {
				t.Fatalf("forked trial differs from fresh reference\n  fork:  %s\n  fresh: %s", fj, rj)
			}
		})
	}
}

// TestConcurrentForksFromOneParent stress-tests the claim the fork
// engine's concurrency rests on: Fork only reads the parent's immutable
// shape and the shared snapshot, so N goroutines may fork from one
// parent — and restore + run trials — at the same time, including while
// the parent machine itself is running a trial. Run under -race (the CI
// test job does) this doubles as the data-race proof.
func TestConcurrentForksFromOneParent(t *testing.T) {
	const workers = 8
	spec := testSpec(workers)
	tr := NewTrialRunner(spec)
	// First Run hands out the prototype and keeps it busy in one of the
	// goroutines below while the others fork from it concurrently.
	want := make([][]byte, workers)
	for i := range want {
		ref, err := RunTrial(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = trialJSON(t, ref)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	got := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trial, err := tr.Run(i)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = trialJSON(t, trial)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("trial %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("concurrent trial %d diverged from serial reference", i)
		}
	}
	if wu, _, fk, fr := tr.Counters(); wu != 1 || fr != 0 || fk > workers-1 {
		t.Fatalf("concurrent run: warmups=%d forks=%d fresh=%d, want 1 warmup, <=%d forks, 0 fresh",
			wu, fk, fr, workers-1)
	}
}
