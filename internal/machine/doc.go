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
// # Snapshot plane
//
// The machine's per-line state — mem.Memory's words, mem.Log's
// first-writeback keys, the directory's owner/lwid/sharer columns — is
// one flat slice per column, indexed by interned line ID. Snapshot,
// Restore and Fork decompose into disjoint tasks fanned across
// GOMAXPROCS workers (shardexec.go): one per processor, plus
// Config.Shards contiguous, page-aligned ID ranges each of the memory
// and directory copies, plus the log and the DRAM model. Shards is a
// parallelism axis only: simulated results and snapshot bytes are
// identical at every count and every GOMAXPROCS, a contract the
// equivalence suite (sharded_equiv_test.go) enforces under -race.
// Measured on FFT/16 (BenchmarkSnapshotRestore), the per-processor
// tasks carry the parallel speedup; the range count changes nothing
// beyond noise. Event execution stays on the one sequential sim.Engine
// for every scheme, because the functional coherence protocol mutates
// cross-processor state synchronously inside events.
//
// # Snapshot format and compatibility
//
// The persistent codec (persist.go) writes one format, format 6: a
// binary payload of a magic, the format number and length-prefixed
// sections of varints, built on internal/wire. The snapshot's flat
// arrays are the persisted arrays, except that each cache persists as
// its way count, its LRU clock and only its non-zero ways as (index,
// line) pairs: most ways of a warm L2 are empty, and an empty way is
// the zero line. The encoded Config omits Shards, so a snapshot
// persists to the same bytes at any shard count and decodes into a
// machine of any shard count. Decode checks every length against the
// target machine and the bytes left before it allocates, and checks
// the cache images, the processor IDs and the pending events, which
// must be in firing order (ascending time, then sequence number), so a
// malformed stored payload is an error: it cannot panic Restore or
// fire events out of order. A cache image decodes straight into a
// cache.Snapshot, which is the same sparse list of occupied ways that
// Restore, Fork and the in-memory snapshot use.
// SnapshotFormat is the format number and is part of every persistent
// snapshot key (see campaign.warmKey): bump it whenever the encoding
// changes so stale stored snapshots read as misses that re-warm, never
// as misused state.
package machine
