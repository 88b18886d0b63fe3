// Package stats collects the measurements the Rebound evaluation
// reports: checkpoint interaction-set sizes (Figs 6.1/6.2), the
// checkpointing-overhead breakdown into WBDelay / WBImbalanceDelay /
// SyncDelay / IPCDelay (Fig 6.5), recovery latencies (Fig 6.6c), log
// footprints and message overheads (Table 6.1), and the raw event
// counts the power model converts into energy (Figs 6.6b and 6.8).
package stats

import (
	"fmt"

	"repro/internal/sim"
)

// CkptRecord describes one completed checkpoint.
type CkptRecord struct {
	Initiator int
	// Size is the number of processors in the Interaction Set for
	// Checkpointing (ICHK). For the Global scheme it is always NProcs.
	Size int
	// SizeStatic is the interaction set a fully synchronous collection
	// would have gathered from the (bloom-filtered) Dep registers at
	// checkpoint time; Size can come out smaller when the distributed
	// protocol's Busy/Decline dynamics fragment the set. SizeExact is
	// the same static closure computed with an ideal (exact) write
	// signature; SizeStatic - SizeExact is the WSIG false-positive
	// inflation measured in Table 6.1 row 1.
	SizeStatic int
	SizeExact  int
	Start      sim.Cycle
	End        sim.Cycle
	// Lines is the number of dirty lines written back for this checkpoint.
	Lines uint64
	// Barrier marks checkpoints triggered by the barrier optimization.
	Barrier bool
	// IO marks checkpoints forced by output I/O.
	IO bool
}

// RollRecord describes one completed rollback (recovery).
type RollRecord struct {
	Initiator int
	// Size is the number of processors in the Interaction Set for
	// Recovery (IREC); Members lists them (used by the fault tests to
	// verify the set covers the poison propagation scope).
	Members []int
	Size    int
	Start   sim.Cycle
	End     sim.Cycle
	// Restored is the number of log entries written back to memory.
	Restored uint64
	// MaxRollbackCycles is the largest distance (in cycles) any
	// processor in the set rolled back, for the no-domino bound.
	MaxRollbackCycles sim.Cycle
}

// Stats is the central measurement sink. One instance is shared by all
// simulator components of a System.
type Stats struct {
	NProcs int

	// Per-core progress.
	Instructions []uint64
	MemOps       []uint64

	// Cache events.
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	L2Evictions        uint64
	L2WritebacksDemand uint64 // displacements between checkpoints
	L2WritebacksCkpt   uint64 // checkpoint-driven writebacks
	L2WritebacksBg     uint64 // of which performed in the background (delayed)

	// Coherence traffic. CohMessages counts baseline protocol messages;
	// DepMessages counts the additional messages needed to maintain
	// LW-ID and the Dep registers (Table 6.1 row 3).
	CohMessages uint64
	DepMessages uint64

	// Memory-system events.
	MemReads, MemWrites uint64
	MemQueueCycles      uint64 // total cycles requests spent queued at channels

	// Log events.
	LogEntries, LogBytes uint64
	LogStubs             uint64
	// LogHighWaterBytes is the maximum log footprint needed to cover
	// one checkpoint interval (Table 6.1 row 2 definition: checkpoint
	// writebacks plus unique displacements until the next checkpoint).
	LogHighWaterBytes uint64

	// Checkpoint-protocol messages (CK?, Accept, Roll?, ...).
	ProtoMessages uint64

	// Dep-register pressure: cycles cores stalled waiting for a free
	// Dep register set (§4.2).
	DepStallCycles uint64

	// Per-core checkpoint stall accounting, in cycles (Fig 6.5).
	WBDelay     []uint64 // stalled writing back own dirty lines
	WBImbalance []uint64 // done, waiting for the rest of the set
	SyncDelay   []uint64 // protocol coordination cost
	RollStall   []uint64 // stalled during rollback/recovery

	Checkpoints []CkptRecord
	Rollbacks   []RollRecord

	// EndCycle is the cycle at which the run finished.
	EndCycle sim.Cycle

	// WSIG false-positive accounting (from sig.Paired).
	WSIGTests, WSIGFalsePositives uint64
}

// New returns a Stats sized for n processors.
func New(n int) *Stats {
	return &Stats{
		NProcs:       n,
		Instructions: make([]uint64, n),
		MemOps:       make([]uint64, n),
		WBDelay:      make([]uint64, n),
		WBImbalance:  make([]uint64, n),
		SyncDelay:    make([]uint64, n),
		RollStall:    make([]uint64, n),
	}
}

// Snapshot returns a deterministic, byte-comparable serialization of
// every counter and record in s — per-core slices, checkpoint and
// rollback histories included. Two runs are considered identical
// exactly when their Snapshots are equal; the determinism suite uses
// this to prove parallel experiment execution matches serial. Stats
// holds only scalars and slices (no maps), so the rendering is stable
// across processes, and newly added fields are covered automatically.
func (s *Stats) Snapshot() string {
	return fmt.Sprintf("%+v", *s)
}

// CheckShape reports whether every per-core array of s has NProcs
// entries, the shape New builds.
func (s *Stats) CheckShape() error {
	for _, a := range [][]uint64{s.Instructions, s.MemOps, s.WBDelay, s.WBImbalance, s.SyncDelay, s.RollStall} {
		if len(a) != s.NProcs {
			return fmt.Errorf("stats: per-core array has %d entries, want %d", len(a), s.NProcs)
		}
	}
	return nil
}

// CopyInto deep-copies every counter and record of s into dst, reusing
// dst's slice storage. dst must be sized for the same processor count.
// It is the capture/restore primitive of the machine snapshot engine:
// the same Stats object stays wired into every simulator component, and
// its contents are rolled back in place.
func (s *Stats) CopyInto(dst *Stats) {
	if dst.NProcs != s.NProcs {
		panic("stats: CopyInto across different processor counts")
	}
	// Whole-struct assignment first, so every scalar — including fields
	// added after this function was written — is covered automatically,
	// matching the property Snapshot() gets from %+v. Then the slice
	// headers are repointed back at dst's storage and deep-copied.
	instr, memOps := dst.Instructions, dst.MemOps
	wbd, wbi, syn, roll := dst.WBDelay, dst.WBImbalance, dst.SyncDelay, dst.RollStall
	ckpts, rolls := dst.Checkpoints, dst.Rollbacks
	*dst = *s
	perProc := func(d *[]uint64, buf, src []uint64) { *d = append(buf[:0], src...) }
	perProc(&dst.Instructions, instr, s.Instructions)
	perProc(&dst.MemOps, memOps, s.MemOps)
	perProc(&dst.WBDelay, wbd, s.WBDelay)
	perProc(&dst.WBImbalance, wbi, s.WBImbalance)
	perProc(&dst.SyncDelay, syn, s.SyncDelay)
	perProc(&dst.RollStall, roll, s.RollStall)
	dst.Checkpoints = append(ckpts[:0], s.Checkpoints...)
	dst.Rollbacks = append(rolls[:0], s.Rollbacks...)
	for i := range dst.Rollbacks {
		// Members must not be shared: the source records stay live.
		dst.Rollbacks[i].Members = append([]int(nil), s.Rollbacks[i].Members...)
	}
}

// TotalInstructions sums instructions across cores.
func (s *Stats) TotalInstructions() uint64 {
	var t uint64
	for _, v := range s.Instructions {
		t += v
	}
	return t
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, v := range xs {
		t += v
	}
	return t
}

// StallTotals returns the summed per-category checkpoint stall cycles.
func (s *Stats) StallTotals() (wb, imb, sync uint64) {
	return sum(s.WBDelay), sum(s.WBImbalance), sum(s.SyncDelay)
}

// AvgICHKFraction returns the average interaction-set size across all
// checkpoints as a fraction of the processor count (Figs 6.1/6.2). A
// run with no checkpoints returns 0.
func (s *Stats) AvgICHKFraction() float64 {
	if len(s.Checkpoints) == 0 {
		return 0
	}
	var t int
	for _, c := range s.Checkpoints {
		t += c.Size
	}
	return float64(t) / float64(len(s.Checkpoints)) / float64(s.NProcs)
}

// AvgICHKExactFraction is AvgICHKFraction with an ideal write signature.
func (s *Stats) AvgICHKExactFraction() float64 {
	if len(s.Checkpoints) == 0 {
		return 0
	}
	var t int
	for _, c := range s.Checkpoints {
		t += c.SizeExact
	}
	return float64(t) / float64(len(s.Checkpoints)) / float64(s.NProcs)
}

// AvgICHKStaticFraction is the average static (bloom) closure size.
func (s *Stats) AvgICHKStaticFraction() float64 {
	if len(s.Checkpoints) == 0 {
		return 0
	}
	var t int
	for _, c := range s.Checkpoints {
		if c.SizeStatic > 0 {
			t += c.SizeStatic
		} else {
			t += c.Size
		}
	}
	return float64(t) / float64(len(s.Checkpoints)) / float64(s.NProcs)
}

// ICHKFalsePositiveIncreasePct returns the percentage increase of the
// interaction set caused by WSIG false positives (Table 6.1 row 1):
// the static bloom closure versus the static exact closure, so the
// comparison is not polluted by protocol timing.
func (s *Stats) ICHKFalsePositiveIncreasePct() float64 {
	exact := s.AvgICHKExactFraction()
	if exact == 0 {
		return 0
	}
	pct := (s.AvgICHKStaticFraction() - exact) / exact * 100
	if pct < 0 {
		return 0
	}
	return pct
}

// AvgCheckpointInterval returns the mean number of cycles between the
// checkpoints a processor participates in, averaged over processors
// (the metric of Fig 6.7). Every member of a checkpoint's interaction
// set counts as one participation, so the average interval is the run
// length divided by the mean participations per processor. A run with
// no checkpoints returns the full run length.
func (s *Stats) AvgCheckpointInterval() float64 {
	if s.NProcs == 0 {
		return 0
	}
	var participations float64
	for _, c := range s.Checkpoints {
		participations += float64(c.Size)
	}
	perProc := participations / float64(s.NProcs)
	if perProc == 0 {
		return float64(s.EndCycle)
	}
	return float64(s.EndCycle) / perProc
}

// AvgCheckpointIntervalInstr is AvgCheckpointInterval measured in
// per-processor instructions instead of cycles: the mean number of
// instructions a processor commits between the checkpoints it
// participates in. This is the robust form of Fig 6.7's metric when
// checkpoints are triggered by instruction counts.
func (s *Stats) AvgCheckpointIntervalInstr() float64 {
	if s.NProcs == 0 {
		return 0
	}
	var participations float64
	for _, c := range s.Checkpoints {
		participations += float64(c.Size)
	}
	perProc := participations / float64(s.NProcs)
	instrPerProc := float64(s.TotalInstructions()) / float64(s.NProcs)
	if perProc == 0 {
		return instrPerProc
	}
	return instrPerProc / perProc
}

// MessageIncreasePct returns the extra coherence messages needed to
// maintain LW-ID and Dep registers, as a percentage of the baseline
// protocol messages (Table 6.1 row 3).
func (s *Stats) MessageIncreasePct() float64 {
	if s.CohMessages == 0 {
		return 0
	}
	return float64(s.DepMessages) / float64(s.CohMessages) * 100
}

// AvgRecoveryCycles returns the mean recovery latency across rollbacks.
func (s *Stats) AvgRecoveryCycles() float64 {
	if len(s.Rollbacks) == 0 {
		return 0
	}
	var t uint64
	for _, r := range s.Rollbacks {
		t += uint64(r.End - r.Start)
	}
	return float64(t) / float64(len(s.Rollbacks))
}
