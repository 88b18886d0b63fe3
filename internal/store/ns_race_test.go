package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestNamespaceRaceStress hammers one Namespace and the snapshot tier
// from many goroutines — concurrent PutJSON/GetJSON/PutRaw/GetRaw of
// overlapping names, concurrent PutSnapshot/GetSnapshot of one snapshot
// key — under -race. The invariants: a Get never observes a torn or
// foreign record (atomic rename), and a corrupt record surfaces as an
// error or miss, never as a payload. These are the assumptions the
// distributed tier leans on when N workers push records through one
// coordinator store.
func TestNamespaceRaceStress(t *testing.T) {
	st, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := st.Namespace("stress", "job")
	if err != nil {
		t.Fatal(err)
	}

	type rec struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}

	const (
		goroutines = 8
		iters      = 200
		names      = 5
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("rec-%d", i%names)
				switch (g + i) % 4 {
				case 0:
					if err := ns.PutJSON(name, &rec{Name: name, N: i}); err != nil {
						t.Errorf("PutJSON: %v", err)
						return
					}
				case 1:
					var r rec
					ok, err := ns.GetJSON(name, &r)
					if err != nil {
						t.Errorf("GetJSON: %v", err)
						return
					}
					if ok && r.Name != name {
						t.Errorf("GetJSON(%s) returned foreign record %q", name, r.Name)
						return
					}
				case 2:
					data := []byte(fmt.Sprintf(`{"name":%q,"n":%d}`, name, i))
					if err := ns.PutRaw(name, data); err != nil {
						t.Errorf("PutRaw: %v", err)
						return
					}
				default:
					if _, _, err := ns.GetRaw(name); err != nil {
						t.Errorf("GetRaw: %v", err)
						return
					}
				}
			}
		}(g)
	}

	// Snapshot tier: one snapshot key written and read concurrently.
	payload := []byte(`{"fmt":1,"state":"warm"}`)
	const snapKey = "machine-snapshot|stress"
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					if err := st.PutSnapshot(snapKey, payload); err != nil {
						t.Errorf("PutSnapshot: %v", err)
						return
					}
					continue
				}
				got, ok, err := st.GetSnapshot(snapKey)
				if err != nil {
					t.Errorf("GetSnapshot: %v", err)
					return
				}
				if ok && string(got) != string(payload) {
					t.Errorf("GetSnapshot returned wrong payload %q", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNamespaceEachSkipsCorrupt: Each enumerates in ascending name
// order, decodes every healthy record, and skips (counts, never
// returns) entries that do not decode — the contract explore resume
// uses to rebuild its evaluated-cell set from a directory that may
// hold records written by other versions or torn by a crash.
func TestNamespaceEachSkipsCorrupt(t *testing.T) {
	st, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := st.Namespace("explore", "cells")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		N int `json:"n"`
	}
	for i := 0; i < 5; i++ {
		if err := ns.PutJSON(fmt.Sprintf("cell-%d", i), &rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one record in place (torn write survives a crash as junk).
	if err := os.WriteFile(filepath.Join(ns.Dir(), "cell-2.json"), []byte(`{"n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var names []string
	var vals []int
	skipped, err := ns.Each(
		func() any { return new(rec) },
		func(name string, v any) {
			names = append(names, name)
			vals = append(vals, v.(*rec).N)
		})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	wantNames := []string{"cell-0", "cell-1", "cell-3", "cell-4"}
	wantVals := []int{0, 1, 3, 4}
	if fmt.Sprint(names) != fmt.Sprint(wantNames) || fmt.Sprint(vals) != fmt.Sprint(wantVals) {
		t.Fatalf("Each visited %v=%v, want %v=%v", names, vals, wantNames, wantVals)
	}
	// An unwritten namespace enumerates empty without creating anything.
	empty, err := st.Namespace("explore", "nothing")
	if err != nil {
		t.Fatal(err)
	}
	if skipped, err := empty.Each(func() any { return new(rec) }, func(string, any) {
		t.Error("visited a record in an empty namespace")
	}); err != nil || skipped != 0 {
		t.Fatalf("empty namespace: skipped=%d err=%v", skipped, err)
	}
}

// TestNamespaceEachRaceStress runs Each concurrently with writers
// overwriting the same names under -race: every visited record must be
// whole and self-consistent (atomic rename), and the enumeration must
// never error — late-breaking names may or may not appear, torn
// nothing.
func TestNamespaceEachRaceStress(t *testing.T) {
	st, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := st.Namespace("explore", "race")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	const (
		writers = 4
		readers = 4
		iters   = 150
		names   = 6
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("cell-%d", (g+i)%names)
				if err := ns.PutJSON(name, &rec{Name: name, N: i}); err != nil {
					t.Errorf("PutJSON: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				prev := ""
				_, err := ns.Each(
					func() any { return new(rec) },
					func(name string, v any) {
						if name <= prev {
							t.Errorf("Each out of order: %q after %q", name, prev)
						}
						prev = name
						if got := v.(*rec); got.Name != name {
							t.Errorf("Each(%s) visited foreign record %q", name, got.Name)
						}
					})
				if err != nil {
					t.Errorf("Each: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCorruptRecordsNeverServed corrupts stored records in place and
// asserts every read path reports the damage (error or miss) instead
// of returning the bytes as a valid record — the "corrupt reads as
// miss" half of the idempotent-retry design: a re-run simply rewrites
// the byte-identical record over the damage.
func TestCorruptRecordsNeverServed(t *testing.T) {
	st, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot record: flip payload bytes after a valid write.
	const snapKey = "machine-snapshot|corrupt"
	if err := st.PutSnapshot(snapKey, []byte(`{"engine":"state"}`)); err != nil {
		t.Fatal(err)
	}
	ns, err := st.SnapshotNamespace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ns.Dir(), SnapshotKeyOf(snapKey)+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the embedded machine payload, keeping the framing valid.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 1
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if payload, ok, err := st.GetSnapshot(snapKey); err == nil && ok {
		t.Fatalf("corrupt snapshot served as valid payload %q", payload)
	}

	// Namespace record: truncated JSON must error, never decode.
	job, err := st.Namespace("campaigns", "deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.PutJSON("trial-000001", map[string]int{"index": 1}); err != nil {
		t.Fatal(err)
	}
	tpath := filepath.Join(job.Dir(), "trial-000001.json")
	if err := os.WriteFile(tpath, []byte(`{"index":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var v map[string]int
	if ok, err := job.GetJSON("trial-000001", &v); err == nil && ok {
		t.Fatalf("torn namespace record decoded as %v", v)
	}
	// PutRaw must refuse to write invalid JSON in the first place.
	if err := job.PutRaw("trial-000002", []byte(`{"index":`)); err == nil {
		t.Fatal("PutRaw accepted invalid JSON")
	}
}
