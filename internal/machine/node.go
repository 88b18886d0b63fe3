package machine

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// procNode adapts a Proc to the coherence.Node interface (the L2
// controller surface the directory talks to).
type procNode Proc

func (n *procNode) proc() *Proc { return (*Proc)(n) }

// Recall implements coherence.Node: hand over (invalidate) or downgrade
// (share) this tile's copy of line.
func (n *procNode) Recall(line uint64, invalidate bool) (mem.Word, bool, uint64, bool) {
	p := n.proc()
	l2 := p.l2.Peek(line)
	if l2 == nil {
		return mem.Word{}, false, 0, false
	}
	data, dirty, epoch := l2.Data, l2.Dirty, l2.Epoch
	if invalidate {
		if l2.Delayed {
			// A Delayed line owes its data to the previous checkpoint's
			// memory image; complete that writeback before the line
			// migrates to the new owner (see DESIGN.md).
			p.m.St.L2WritebacksCkpt++
			p.m.St.L2WritebacksBg++
			p.m.Ctrl.Writeback(p.id, l2.Epoch, line, l2.Data)
			dirty = false
		}
		p.l2.Invalidate(line)
		p.l1.Invalidate(line)
		return data, dirty, epoch, true
	}
	// Downgrade to Shared; the directory writes a dirty copy back to
	// memory (which also satisfies a pending delayed writeback).
	l2.State = cache.Shared
	l2.Dirty = false
	l2.Delayed = false
	return data, dirty, epoch, true
}

// InvalidateShared implements coherence.Node.
func (n *procNode) InvalidateShared(line uint64) {
	p := n.proc()
	p.l2.Invalidate(line)
	p.l1.Invalidate(line)
}

// LastWriterCheck implements coherence.Node: the "are you the last
// writer?" query of §3.3.2/§4.2. The line is tested against the live
// WSIGs newest-first; a match records the consumer in that interval's
// MyConsumers. The exact shadow signature feeds the false-positive
// measurement of Table 6.1.
func (n *procNode) LastWriterCheck(line uint64, consumer int) (bool, bool) {
	p := n.proc()
	exact := false
	if e, ok := p.deps.LastWriterEpochExact(line); ok {
		exact = true
		p.deps.ByEpoch(e).CExact.Set(consumer)
	}
	epoch, ok := p.deps.LastWriterEpoch(line)
	if !ok {
		return false, false // NO_WR
	}
	p.deps.ByEpoch(epoch).MyConsumers.Set(consumer)
	return true, exact
}

// AddProducer implements coherence.Node.
func (n *procNode) AddProducer(producer int, exact bool) {
	p := n.proc()
	p.deps.Current().MyProducers.Set(producer)
	if exact {
		p.deps.Current().PExact.Set(producer)
	}
}
