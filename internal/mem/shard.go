package mem

import "fmt"

// Sharding partitions the interned line-ID space into a power-of-two
// number of home proc-group shards. It is the machine-wide layout rule
// of the sharded-state layer: Memory's word store, the Log's
// first-writeback keys and the coherence directory's per-line arrays
// all carve their flat ID-indexed state into per-shard slices using one
// Sharding, so per-shard snapshot/restore tasks touch disjoint memory.
//
// IDs interleave across shards by their low bits (shard = id & (n-1),
// slot = id >> log2(n)): intern order fills every shard uniformly
// regardless of access pattern, and the single-shard layout is exactly
// the flat ID-indexed layout (shard 0, slot == id) that persisted
// snapshots use at every shard count.
//
// A Sharding is pure arithmetic — it holds no state and is safe to
// copy and to use concurrently.
type Sharding struct {
	n     int
	mask  int32
	shift uint
}

// MaxShards bounds the shard count: far above any plausible proc-group
// split (1024-proc machines at 64 procs per group need 16) while
// keeping per-shard bookkeeping from degenerating into per-line
// bookkeeping.
const MaxShards = 64

// NewSharding returns the layout for n shards. n < 1 selects 1; n must
// be a power of two no greater than MaxShards.
func NewSharding(n int) Sharding {
	if n < 1 {
		n = 1
	}
	if n&(n-1) != 0 || n > MaxShards {
		panic(fmt.Sprintf("mem: shard count %d must be a power of two in [1, %d]", n, MaxShards))
	}
	shift := uint(0)
	for 1<<shift < n {
		shift++
	}
	return Sharding{n: n, mask: int32(n - 1), shift: shift}
}

// N returns the shard count (>= 1; the zero Sharding counts as 1).
func (s Sharding) N() int {
	if s.n == 0 {
		return 1
	}
	return s.n
}

// Shard returns the home shard of interned line id.
func (s Sharding) Shard(id int32) int { return int(id & s.mask) }

// Slot returns id's index within its shard's slice.
func (s Sharding) Slot(id int32) int { return int(id >> s.shift) }

// ID reconstructs the interned line ID of (shard, slot).
func (s Sharding) ID(shard, slot int) int32 {
	return int32(slot)<<s.shift | int32(shard)
}

// SlotsFor returns the number of slots shard sh needs to cover IDs
// [0, ids): ceil((ids - sh) / n) clamped at 0.
func (s Sharding) SlotsFor(ids int, sh int) int {
	if ids <= sh {
		return 0
	}
	return (ids - sh + s.N() - 1) / s.N()
}
