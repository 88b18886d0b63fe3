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
// shard is exactly the historical flat layout). The shard count is a
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
// The persistent codec (persist.go) writes two formats. An unsharded
// machine (Shards <= 1) encodes legacy format 1, byte-identical to the
// pre-sharding codec — snapshots persisted by earlier versions decode
// unchanged, and Shards=0 and Shards=1 persist identically. A sharded
// machine encodes format 2, whose memory and directory images are
// per-shard arrays. DecodeSnapshot probes the "format" field and
// dispatches; a format never decodes into a machine of the other
// layout. SnapshotFormat names the current (highest) format and is
// part of every persistent snapshot key (see campaign.warmKey): bump
// it whenever the encoding changes so stale stored snapshots read as
// misses that re-warm, never as misused state.
package machine
