package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Persistent machine snapshots: the campaign engine warms a machine
// once per spec and fans trials out from the snapshot (machine.Fork).
// Persisting the serialized snapshot means a restarted daemon skips
// even that single warmup — cold start to first trial is one store
// read.
//
// Snapshot records live in the "snapshots" namespace, content-addressed
// by the caller's snapshot key (which must embed everything the warm
// state depends on: the full spec key including the scheme, plus the
// codec's format version — see campaign.warmKey). Like top-level run
// records they are self-verifying: the record stores the sha256 of its
// payload and a read refuses a record that does not reproduce it, so a
// torn write or manual edit is surfaced as an error, never silently
// restored into a machine.
//
// The payload is binary (machine.EncodeSnapshot), so the record is
// too: the magic, the snapshot key as a uvarint length and its bytes,
// the 32-byte sha256 of the payload, then the payload to the end.
// Parsing copies only the key; a read scans the payload once, for the
// hash.

// SnapshotsNamespace is the namespace snapshot records live in —
// exported so the store proxy's clients can address snapshot records
// by path.
const SnapshotsNamespace = "snapshots"

// snapshotRecordMagic opens every snapshot record.
const snapshotRecordMagic = "RBSNREC1"

// SnapshotRecord is one serialized machine snapshot as stored.
type SnapshotRecord struct {
	// SnapKey is the caller's snapshot key, kept readable for audits;
	// the record's content address derives from it (Key).
	SnapKey string
	// Sum is the sha256 of Payload; Verify checks it.
	Sum [sha256.Size]byte
	// Payload is the machine.EncodeSnapshot payload.
	Payload []byte
}

// SnapshotKeyOf returns the content address of a snapshot key.
func SnapshotKeyOf(snapKey string) string {
	sum := sha256.Sum256([]byte(snapKey))
	return hex.EncodeToString(sum[:])
}

// NewSnapshotRecord builds the self-verifying record for a serialized
// machine snapshot.
func NewSnapshotRecord(snapKey string, payload []byte) *SnapshotRecord {
	return &SnapshotRecord{SnapKey: snapKey, Sum: sha256.Sum256(payload), Payload: payload}
}

// Key returns the record's content address, the name it is stored
// under.
func (r *SnapshotRecord) Key() string { return SnapshotKeyOf(r.SnapKey) }

// Marshal returns the record's stored bytes.
func (r *SnapshotRecord) Marshal() []byte {
	b := make([]byte, 0, len(snapshotRecordMagic)+binary.MaxVarintLen64+len(r.SnapKey)+sha256.Size+len(r.Payload))
	b = append(b, snapshotRecordMagic...)
	b = binary.AppendUvarint(b, uint64(len(r.SnapKey)))
	b = append(b, r.SnapKey...)
	b = append(b, r.Sum[:]...)
	return append(b, r.Payload...)
}

// ParseSnapshotRecord reads a record's framing. The record's payload
// shares data's storage. It does not check the hash: Verify does.
func ParseSnapshotRecord(data []byte) (*SnapshotRecord, error) {
	if !bytes.HasPrefix(data, []byte(snapshotRecordMagic)) {
		return nil, fmt.Errorf("store: not a snapshot record")
	}
	b := data[len(snapshotRecordMagic):]
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) || uint64(len(b)-k)-n < sha256.Size {
		return nil, fmt.Errorf("store: truncated snapshot record")
	}
	b = b[k:]
	r := &SnapshotRecord{SnapKey: string(b[:n])}
	b = b[n:]
	copy(r.Sum[:], b)
	r.Payload = b[sha256.Size:]
	return r, nil
}

// Verify checks that the payload reproduces the stored hash. It is the
// shared integrity bar for every path a snapshot record travels —
// local disk, the store proxy, a remote worker's read.
func (r *SnapshotRecord) Verify() error {
	if sha256.Sum256(r.Payload) != r.Sum {
		return fmt.Errorf("store: snapshot record %s failed payload verification", r.Key())
	}
	return nil
}

// checkSnapshotRecord is the snapshot namespace's write check: data
// must parse, verify, and be stored under its own content address.
func checkSnapshotRecord(name string, data []byte) error {
	r, err := ParseSnapshotRecord(data)
	if err != nil {
		return err
	}
	if r.Key() != name {
		return fmt.Errorf("store: snapshot record for key %q stored as %s", r.SnapKey, name)
	}
	return r.Verify()
}

// SnapshotPayload returns the verified payload of data, the stored
// bytes of the snapshot record for snapKey: the record must parse,
// carry snapKey and reproduce its own payload hash.
func SnapshotPayload(data []byte, snapKey string) ([]byte, error) {
	r, err := ParseSnapshotRecord(data)
	if err != nil {
		return nil, err
	}
	if r.SnapKey != snapKey {
		return nil, fmt.Errorf("store: snapshot record %s does not match its key", SnapshotKeyOf(snapKey))
	}
	if err := r.Verify(); err != nil {
		return nil, err
	}
	return r.Payload, nil
}

// SnapshotNamespace returns the store's snapshot namespace, shared by
// the local Put/GetSnapshot pair and the service's store proxy.
func (s *Store) SnapshotNamespace() (*Namespace, error) {
	return s.Namespace(SnapshotsNamespace)
}

// PutSnapshot atomically persists a serialized machine snapshot under
// its snapshot key.
func (s *Store) PutSnapshot(snapKey string, payload []byte) error {
	rec := NewSnapshotRecord(snapKey, payload)
	ns, err := s.SnapshotNamespace()
	if err != nil {
		return err
	}
	return ns.PutRaw(rec.Key(), rec.Marshal())
}

// GetSnapshot loads the serialized machine snapshot stored under
// snapKey. ok is false when none exists; a record that exists but is
// corrupt (fails to parse, carries a different key, or does not
// reproduce its own payload hash) is returned as an error, never as a
// payload.
func (s *Store) GetSnapshot(snapKey string) (payload []byte, ok bool, err error) {
	ns, err := s.SnapshotNamespace()
	if err != nil {
		return nil, false, err
	}
	data, ok, err := ns.GetRaw(SnapshotKeyOf(snapKey))
	if err != nil || !ok {
		return nil, false, err
	}
	if payload, err = SnapshotPayload(data, snapKey); err != nil {
		return nil, false, err
	}
	return payload, true, nil
}
