package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tempSweepAge is how old an atomic-write temp file must be before
// Names treats it as the orphan of a killed process and removes it;
// younger ones are live writes in another goroutine.
const tempSweepAge = time.Minute

// Namespace is a directory of atomically-written records under a
// Store, for subsystems whose records are not harness Results — the
// campaign engine persists per-trial records and running aggregates
// through one namespace per campaign key. Records share the store's
// durability discipline (temp file + rename, so a killed process never
// leaves a half-written record) but not its LRU or snapshot
// verification: a namespace record's self-consistency is the caller's
// contract (campaign records embed their trial seed and index).
//
// Content addressing is the caller's: the namespace path segments
// typically embed a content key (e.g. "campaigns", sha256-of-spec).
//
// Records are JSON (<name>.json), except in the snapshot namespace,
// whose records are binary SnapshotRecords (<name>.snap).
type Namespace struct {
	dir       string
	snapshots bool
}

// ErrInvalidRecord marks a PutRaw refused because the data is not a
// well-formed record of the namespace.
var ErrInvalidRecord = errors.New("store: invalid record")

// Namespace returns the namespace rooted at dir/<parts...>. The
// directory is created lazily by the first PutJSON, so probing a
// namespace that was never written (a GET for an unknown campaign)
// leaves no trace on disk. Each part must be a plain path segment.
func (s *Store) Namespace(parts ...string) (*Namespace, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("store: namespace needs at least one path segment")
	}
	for _, p := range parts {
		if err := validSegment(p); err != nil {
			return nil, err
		}
	}
	return &Namespace{
		dir:       filepath.Join(append([]string{s.dir}, parts...)...),
		snapshots: len(parts) == 1 && parts[0] == SnapshotsNamespace,
	}, nil
}

// ContentType is the media type of the namespace's records.
func (n *Namespace) ContentType() string {
	if n.snapshots {
		return "application/octet-stream"
	}
	return "application/json"
}

// ext is the file extension of the namespace's records.
func (n *Namespace) ext() string {
	if n.snapshots {
		return ".snap"
	}
	return ".json"
}

// check reports whether data is a well-formed record to store as
// name: a snapshot record that verifies and is addressed by name, or
// valid JSON.
func (n *Namespace) check(name string, data []byte) error {
	if n.snapshots {
		return checkSnapshotRecord(name, data)
	}
	if !json.Valid(data) {
		return fmt.Errorf("not valid JSON")
	}
	return nil
}

// Dir returns the namespace's directory.
func (n *Namespace) Dir() string { return n.dir }

// validSegment rejects path segments that would escape the namespace
// directory or collide with the atomic-write temp files.
func validSegment(name string) error {
	if name == "" || strings.HasPrefix(name, ".") ||
		strings.ContainsAny(name, `/\`) || name != filepath.Base(name) {
		return fmt.Errorf("store: invalid namespace segment %q", name)
	}
	return nil
}

func (n *Namespace) path(name string) string {
	return filepath.Join(n.dir, name+n.ext())
}

// PutJSON atomically writes v as the record <name>.json, creating the
// namespace directory on first use. Putting an existing name overwrites
// it via rename, so concurrent readers always see a fully-written file.
func (n *Namespace) PutJSON(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return n.PutRaw(name, data)
}

// PutRaw atomically writes data — which must be the record's stored
// bytes, exactly what PutJSON or PutSnapshot would have produced — as
// the record name. It is the write half of the store proxy tier: a
// remote worker marshals a record once and ships the bytes, and the
// coordinator-side write is byte-identical to a local write of the
// same value, which is what keeps resumed campaigns indifferent to
// where each trial ran. Data that is not a well-formed record of the
// namespace (see check) is rejected with ErrInvalidRecord.
func (n *Namespace) PutRaw(name string, data []byte) error {
	if err := validSegment(name); err != nil {
		return err
	}
	if err := n.check(name, data); err != nil {
		return fmt.Errorf("%w %s: %v", ErrInvalidRecord, name, err)
	}
	if err := os.MkdirAll(n.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(n.dir, "."+name+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), n.path(name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetJSON decodes the record stored under name into v. ok is false when
// no such record exists; a record that exists but fails to decode is
// returned as an error.
func (n *Namespace) GetJSON(name string, v any) (ok bool, err error) {
	data, ok, err := n.GetRaw(name)
	if !ok || err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("store: namespace record %s: %w", name, err)
	}
	return true, nil
}

// GetRaw returns the stored bytes of the record under name, exactly as
// written. ok is false when no such record exists. It is the read half
// of the store proxy tier (GET /v1/store/...): records ship to remote
// workers without a decode/re-marshal round trip.
func (n *Namespace) GetRaw(name string) (data []byte, ok bool, err error) {
	if err := validSegment(name); err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(n.path(name))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return data, true, nil
}

// Names lists the record names present in the namespace (without the
// file extension), sorted. A namespace never written lists empty.
// Leftover atomic-write temp files (a Put interrupted by a kill) are
// swept here, mirroring Open's top-level sweep.
func (n *Namespace) Names() ([]string, error) {
	entries, err := os.ReadDir(n.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp") {
			// Sweep only temp files old enough to be orphans of a killed
			// process: a fresh one belongs to an in-flight Put on another
			// goroutine, and removing it would break that Put's rename.
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > tempSweepAge {
				os.Remove(filepath.Join(n.dir, name))
			}
			continue
		}
		if strings.HasSuffix(name, n.ext()) {
			out = append(out, strings.TrimSuffix(name, n.ext()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Each decodes every record in the namespace into a fresh value from
// newV and hands (name, value) to fn, in ascending name order — the
// deterministic enumeration explore resume is built on (a restarted
// exploration lists its evaluated cells in one directory read instead
// of probing candidate keys one by one). Records that fail to decode
// are skipped, not fatal: a namespace shared with older or newer
// writers may hold records of another shape, and a corrupt entry
// should cost its own re-computation, never the whole enumeration.
// skipped reports how many were passed over. Records put concurrently
// with an Each may or may not be visited (the name list is read once,
// and each record is read atomically thanks to the rename discipline);
// fn must not write to the namespace.
func (n *Namespace) Each(newV func() any, fn func(name string, v any)) (skipped int, err error) {
	names, err := n.Names()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		v := newV()
		ok, err := n.GetJSON(name, v)
		if !ok || err != nil {
			// Vanished since the listing (!ok) or undecodable: skip.
			skipped++
			continue
		}
		fn(name, v)
	}
	return skipped, nil
}
