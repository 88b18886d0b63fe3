// Package machine assembles the Rebound manycore substrate of Fig 3.1:
// single-issue cores with private write-through L1s and write-back L2s,
// a full-map directory per tile, two off-chip memory channels with the
// ReVive-style logging controller, and a synchronisation runtime that
// expands barriers and locks into real shared-memory accesses (so they
// create the dependence chains of Fig 4.2b).
//
// The checkpointing schemes themselves (Global, Rebound and variants)
// live in internal/core and drive the machine through the Scheme
// interface and the processor-level primitives (pause/resume, snapshot,
// foreground/background writeback, rollback).
//
// # Sharded state plane
//
// Config.Shards splits the machine's per-line state — mem.Memory's
// word table, mem.Log's last-writer index, the directory's
// owner/lwid/sharer columns — into N power-of-two partitions
// (mem.Sharding: shard = id & (N-1), slot = id >> log2(N), so one
// shard is one flat ID-indexed array). The shard count is a
// storage and parallelism axis only: simulated results are
// byte-identical at every shard count and every GOMAXPROCS, a contract
// the equivalence suite (sharded_equiv_test.go) enforces under -race.
//
// What sharding buys is the state plane: Snapshot, Restore and Fork
// decompose into disjoint per-processor and per-shard tasks fanned
// across GOMAXPROCS workers (shardexec.go). Event execution stays on
// the one sequential sim.Engine for every scheme, because the
// functional coherence protocol mutates cross-processor state
// synchronously inside events.
//
// # Snapshot formats and compatibility
//
// The persistent codec (persist.go) writes one format at every shard
// count. Memory words, directory columns and log keys are gathered into
// flat arrays indexed by interned line ID, and the encoded Config omits
// Shards, so a snapshot persists to the same bytes at any shard count
// and decodes into a machine of any shard count (the flat arrays
// scatter into the target's mem.Sharding). Decode checks every array
// against the target machine's geometry and returns an error on a
// mismatch, so a malformed stored payload cannot panic Restore.
// SnapshotFormat is the format number and is part of every persistent
// snapshot key (see campaign.warmKey): bump it whenever the encoding
// changes so stale stored snapshots read as misses that re-warm, never
// as misused state.
package machine
