package mem

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// DRAM models the off-chip memory channels of Fig 4.3(a): two channels
// of DDR2-667 class bandwidth. Each line transfer occupies a channel
// for Service cycles; concurrent requests to the same channel queue.
// The controller schedules demand reads ahead of writebacks (standard
// read-over-write scheduling, as in the paper's DRAMsim): reads queue
// only against other reads plus the transfer in flight, while
// writebacks yield to all queued reads. Bursty checkpoint writebacks
// therefore hurt mostly by saturating bandwidth — the IPCDelay of
// Fig 6.5 — while cores that are stopped anyway (Global's foreground
// writeback stall) pay the full serialisation.
type DRAM struct {
	eng *sim.Engine
	st  *stats.Stats

	// Service is the channel occupancy per 32-byte line access. At
	// DDR2-667 ×2 channels and a 1 GHz core clock this is ~3 cycles.
	Service sim.Cycle
	// FixedLatency is the non-bandwidth part of a memory round trip
	// (row activation, controller, off-chip signalling). Together with
	// Service it yields the paper's ~200-cycle unloaded miss latency.
	FixedLatency sim.Cycle

	readFree []sim.Cycle // next cycle the channel can start a read
	wbFree   []sim.Cycle // next cycle the channel can start a writeback
}

// NewDRAM returns a DRAM model with the given number of channels.
func NewDRAM(eng *sim.Engine, st *stats.Stats, channels int) *DRAM {
	if channels < 1 {
		channels = 1
	}
	return &DRAM{
		eng:          eng,
		st:           st,
		Service:      3,
		FixedLatency: 170,
		readFree:     make([]sim.Cycle, channels),
		wbFree:       make([]sim.Cycle, channels),
	}
}

func (d *DRAM) channel(line uint64) int {
	return int((line ^ (line >> 13)) % uint64(len(d.readFree)))
}

// Occupy reserves the channel owning line for n writeback-class
// line-accesses (checkpoint/displacement writebacks, log writes,
// restores) and returns the absolute completion cycle. Writebacks
// yield to all pending reads.
func (d *DRAM) Occupy(line uint64, n int) sim.Cycle {
	ch := d.channel(line)
	now := d.eng.Now()
	start := d.wbFree[ch]
	if d.readFree[ch] > start {
		start = d.readFree[ch]
	}
	if start < now {
		start = now
	}
	d.st.MemQueueCycles += uint64(start - now)
	done := start + sim.Cycle(n)*d.Service
	d.wbFree[ch] = done
	return done
}

// ReadLatency returns the total latency of a demand read of line,
// including queueing against other reads and the write transfer in
// flight, and accounts the access. Demand reads preempt queued
// writebacks (read-over-write scheduling).
func (d *DRAM) ReadLatency(line uint64) sim.Cycle {
	d.st.MemReads++
	ch := d.channel(line)
	now := d.eng.Now()
	start := d.readFree[ch]
	if start < now {
		start = now
	}
	// A writeback transfer already on the wires blocks the read for one
	// service slot; beyond that, the controller can reorder reads ahead
	// of at most a finite write-queue window — when the writeback
	// backlog exceeds it (a saturating burst), writes are forced out
	// and reads wait for the excess.
	if wb := d.wbFree[ch]; wb > start {
		start += d.Service
		if window := 64 * d.Service; wb > start+window {
			start = wb - window
		}
	}
	d.st.MemQueueCycles += uint64(start - now)
	done := start + d.Service
	d.readFree[ch] = done
	// The read consumed a slot the writebacks cannot use.
	if d.wbFree[ch] > now {
		d.wbFree[ch] += d.Service
	}
	return (done - now) + d.FixedLatency
}

// QueueDepth returns how many cycles of writeback work are queued on
// the channel owning line (used by the delayed-writeback rate
// controller, §4.1).
func (d *DRAM) QueueDepth(line uint64) sim.Cycle {
	ch := d.channel(line)
	now := d.eng.Now()
	if d.wbFree[ch] <= now {
		return 0
	}
	return d.wbFree[ch] - now
}

// Channels returns the channel count.
func (d *DRAM) Channels() int { return len(d.readFree) }

// DRAMSnapshot is the saved channel state.
type DRAMSnapshot struct {
	ReadFree []sim.Cycle
	WBFree   []sim.Cycle
}

// Save copies the channel state into s.
func (d *DRAM) Save(s *DRAMSnapshot) {
	s.ReadFree = append(s.ReadFree[:0], d.readFree...)
	s.WBFree = append(s.WBFree[:0], d.wbFree...)
}

// CheckSnapshot reports whether s has d's channel count, Load's
// precondition.
func (d *DRAM) CheckSnapshot(s *DRAMSnapshot) error {
	if len(s.ReadFree) != len(d.readFree) || len(s.WBFree) != len(d.wbFree) {
		return fmt.Errorf("mem: DRAM snapshot has %d/%d channels, want %d",
			len(s.ReadFree), len(s.WBFree), len(d.readFree))
	}
	return nil
}

// Load restores the channel state from s.
func (d *DRAM) Load(s *DRAMSnapshot) {
	if err := d.CheckSnapshot(s); err != nil {
		panic(err)
	}
	copy(d.readFree, s.ReadFree)
	copy(d.wbFree, s.WBFree)
}
