package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/retry"
	"repro/internal/store"
)

// Tier is the store surface a worker executes against: the snapshot
// tier a TrialRunner warms from (one read on cold start) plus the
// record sinks its results push into. LocalTier serves it from a
// shared store directory; RemoteStore serves it over the coordinator's
// /v1/store proxy. Either way the bytes that land on the coordinator's
// disk are exactly what a local run would have written — that is the
// whole byte-identity story.
type Tier interface {
	campaign.SnapshotStore
	// PutTrial persists one finished campaign trial under its campaign
	// key and index.
	PutTrial(campaignKey string, index int, tr *campaign.Trial) error
	// PutRecord persists one finished sweep-cell record.
	PutRecord(rec *store.Record) error
	// SnapshotReads reports how many snapshot reads the tier has served
	// — the cold-start economics counter (a worker's first trial should
	// cost exactly one).
	SnapshotReads() uint64
}

// LocalTier is the Tier of a worker sharing the coordinator's store
// directory (same host, or a shared filesystem).
type LocalTier struct {
	St *store.Store

	snapReads atomic.Uint64
}

// GetSnapshot implements campaign.SnapshotStore against the local
// store, counting the read.
func (t *LocalTier) GetSnapshot(snapKey string) ([]byte, bool, error) {
	t.snapReads.Add(1)
	return t.St.GetSnapshot(snapKey)
}

// PutSnapshot implements campaign.SnapshotStore against the local
// store.
func (t *LocalTier) PutSnapshot(snapKey string, payload []byte) error {
	return t.St.PutSnapshot(snapKey, payload)
}

// PutTrial writes the trial record exactly where the local campaign
// engine would: same namespace, same record name, same marshalling.
func (t *LocalTier) PutTrial(campaignKey string, index int, tr *campaign.Trial) error {
	ns, err := campaign.TrialNamespace(t.St, campaignKey)
	if err != nil {
		return err
	}
	return ns.PutJSON(campaign.TrialRecordName(index), tr)
}

// PutRecord writes the sweep-cell record into the shared store.
func (t *LocalTier) PutRecord(rec *store.Record) error { return t.St.Put(rec) }

// SnapshotReads reports snapshot reads served so far.
func (t *LocalTier) SnapshotReads() uint64 { return t.snapReads.Load() }

// RemoteStore is the Tier of a worker on another host: every operation
// travels the coordinator's store proxy —
//
//	GET /v1/store/ns/{path...}   raw namespace record bytes
//	PUT /v1/store/ns/{path...}   raw namespace record bytes
//	PUT /v1/store/runs/{key}     one harness run record
//
// — with retry.Policy backoff on transport failures. Reads verify
// what they fetched (a snapshot record must reproduce its own payload
// hash) and writes ship the record bytes a local write stores (JSON,
// or a binary snapshot record), so the coordinator-side PutRaw lands
// byte-identically to a local write of the same value.
type RemoteStore struct {
	base   string
	client *http.Client
	policy retry.Policy

	snapReads atomic.Uint64
}

// NewRemoteStore returns a Tier over the coordinator at base (e.g.
// "http://host:8080"). client nil selects http.DefaultClient.
func NewRemoteStore(base string, client *http.Client, policy retry.Policy) *RemoteStore {
	if client == nil {
		client = http.DefaultClient
	}
	return &RemoteStore{base: strings.TrimSuffix(base, "/"), client: client, policy: policy}
}

// SnapshotReads reports how many snapshot fetches this client made.
func (r *RemoteStore) SnapshotReads() uint64 { return r.snapReads.Load() }

// nsPath renders the proxy URL path of a namespace record.
func nsPath(parts ...string) string {
	var b strings.Builder
	b.WriteString("/v1/store/ns")
	for _, p := range parts {
		b.WriteByte('/')
		b.WriteString(url.PathEscape(p))
	}
	return b.String()
}

// GetSnapshot fetches the snapshot record stored under snapKey through
// the proxy and verifies it end to end: the record must decode, carry
// the requested snapshot key, and reproduce its own payload hash. A
// proxy or transport failure retries under the policy; a missing
// record is a miss, not an error.
func (r *RemoteStore) GetSnapshot(snapKey string) (payload []byte, ok bool, err error) {
	r.snapReads.Add(1)
	data, ok, err := r.getRaw(nsPath(store.SnapshotsNamespace, store.SnapshotKeyOf(snapKey)))
	if err != nil || !ok {
		return nil, false, err
	}
	if payload, err = store.SnapshotPayload(data, snapKey); err != nil {
		return nil, false, fmt.Errorf("cluster: snapshot %s: %w", snapKey, err)
	}
	return payload, true, nil
}

// PutSnapshot ships a serialized machine snapshot to the coordinator
// in exactly the record form store.PutSnapshot writes locally.
func (r *RemoteStore) PutSnapshot(snapKey string, payload []byte) error {
	rec := store.NewSnapshotRecord(snapKey, payload)
	return r.putRaw(nsPath(store.SnapshotsNamespace, rec.Key()), "application/octet-stream", rec.Marshal())
}

// PutTrial ships one finished trial record. The bytes are the
// json.Marshal of the Trial — what the local engine's PutJSON writes —
// so a trial computed remotely is indistinguishable on disk from one
// computed in the coordinator's process.
func (r *RemoteStore) PutTrial(campaignKey string, index int, tr *campaign.Trial) error {
	data, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	parts := append(campaign.NamespacePath(campaignKey), campaign.TrialRecordName(index))
	return r.putRaw(nsPath(parts...), "application/json", data)
}

// PutRecord ships one finished sweep-cell record; the coordinator
// verifies it (content address, stats snapshot) before storing.
func (r *RemoteStore) PutRecord(rec *store.Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return r.putRaw("/v1/store/runs/"+url.PathEscape(rec.Key), "application/json", data)
}

// getRaw GETs a proxy path with retries. 404 is a miss; any other
// non-200 status or transport failure is retried, then surfaced.
func (r *RemoteStore) getRaw(path string) (data []byte, ok bool, err error) {
	err = r.policy.Do(context.Background(), func() error {
		resp, err := r.client.Get(r.base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			data, ok = body, true
			return nil
		case http.StatusNotFound:
			data, ok = nil, false
			return nil
		default:
			return httpError(path, resp)
		}
	})
	if err != nil {
		return nil, false, fmt.Errorf("cluster: GET %s: %w", path, err)
	}
	return data, ok, nil
}

// putRaw PUTs record bytes of the given media type to a proxy path
// with retries. Re-PUTting the same record is safe by design: records
// are content-addressed and byte-identical across re-runs, so the
// coordinator-side overwrite is a no-op rename.
func (r *RemoteStore) putRaw(path, contentType string, data []byte) error {
	err := r.policy.Do(context.Background(), func() error {
		req, err := http.NewRequest(http.MethodPut, r.base+path, bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := r.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			return httpError(path, resp)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cluster: PUT %s: %w", path, err)
	}
	return nil
}

// httpError renders a non-OK proxy response, body excerpt included.
func httpError(path string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
}
