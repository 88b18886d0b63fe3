package mem

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Controller is the memory controller of Fig 3.1: every writeback of a
// dirty line first reads the line's old value from memory and saves it
// into the software log, then writes the new data (§3.3.3). Between
// checkpoints, displacements of dirty lines follow the same path.
type Controller struct {
	eng  *sim.Engine
	st   *stats.Stats
	mem  *Memory
	dram *DRAM
	log  *Log
}

// NewController wires a controller to its memory, DRAM model and log.
// The log is re-pointed at the memory's line table so both resolve the
// same interned IDs (WritebackID relies on this).
func NewController(eng *sim.Engine, st *stats.Stats, m *Memory, d *DRAM, l *Log) *Controller {
	l.adoptTable(m.Table())
	return &Controller{eng: eng, st: st, mem: m, dram: d, log: l}
}

// Memory returns the backing line store.
func (c *Controller) Memory() *Memory { return c.mem }

// Log returns the undo log.
func (c *Controller) Log() *Log { return c.log }

// DRAM returns the bandwidth model.
func (c *Controller) DRAM() *DRAM { return c.dram }

// Writeback performs a logged writeback of line with new data w on
// behalf of processor pid whose data belongs to checkpoint interval
// epoch. It returns the absolute cycle at which the channel finishes.
//
// Channel occupancy: 1 access for the data write, plus (if the log
// entry is actually appended) 2 accesses for the old-value read and
// the log write.
func (c *Controller) Writeback(pid int, epoch uint64, line uint64, w Word) sim.Cycle {
	return c.WritebackID(pid, epoch, c.mem.Table().ID(line), line, w)
}

// WritebackID is Writeback for a caller (the directory) that already
// interned line as id: the whole logged-writeback pipeline then runs on
// flat slices with no further hashing.
func (c *Controller) WritebackID(pid int, epoch uint64, id int32, line uint64, w Word) sim.Cycle {
	old := c.mem.ReadID(id)
	accesses := 1
	if c.log.AppendID(pid, epoch, id, line, old, c.eng.Now()) {
		accesses += 2
	}
	c.mem.WriteID(id, w)
	c.st.MemWrites++
	return c.dram.Occupy(line, accesses)
}

// LogRegisters accounts the logging of a processor's register state at
// a checkpoint (a fixed-size record) and returns the completion cycle.
func (c *Controller) LogRegisters(pid int) sim.Cycle {
	const regBytes = 256 // architectural register file snapshot
	c.st.LogBytes += regBytes
	// One line-sized access on the channel owning the pid's log region.
	return c.dram.Occupy(uint64(pid)*64+1, (regBytes+31)/32)
}

// Restore applies the undo log for the given per-processor target
// epochs, writing old values back to memory, and returns the number of
// entries restored together with the absolute cycle at which the last
// restore write completes. Restore bandwidth is the dominant term of
// the paper's recovery latency (§5, following ReVive).
func (c *Controller) Restore(target map[int]uint64) (uint64, sim.Cycle) {
	done := c.eng.Now()
	n := c.log.Rollback(target, func(id int32, line uint64, old Word) {
		c.mem.WriteID(id, old)
		c.st.MemWrites++
		// Log read + memory write per restored entry.
		if d := c.dram.Occupy(line, 2); d > done {
			done = d
		}
	})
	return n, done
}
