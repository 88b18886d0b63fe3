package machine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel intra-machine executor. Event execution itself stays
// sequential on one sim.Engine — the functional directory protocol
// mutates other processors' caches synchronously inside one event, so
// any parallel event schedule would change the interleaving and break
// the byte-identity guarantee. What CAN run in parallel, exactly
// because the state layer is sharded, is the machine-state plane:
// snapshot, restore and fork decompose into disjoint tasks — one per
// processor (caches, Dep registers, streams, checkpoint history), one
// per state shard (memory words, directory entries), plus the log and
// the DRAM model. Those tasks touch disjoint memory by construction, so
// running them on all cores is free of both races and ordering effects:
// the resulting snapshot bytes are identical at any GOMAXPROCS.

// parallelDo runs fn(0)..fn(n-1), fanning the calls out across
// min(GOMAXPROCS, n) goroutines. The tasks must be mutually
// independent. With one core (or one task) it degenerates to a plain
// loop with no goroutines and no allocation.
func parallelDo(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// saveParallel captures the decomposable machine state into s: every
// processor, every memory and directory shard, the log and the DRAM
// model, as independent tasks. The caller handles the scalar and
// engine state around it.
func (m *Machine) saveParallel(s *MachineSnapshot) {
	m.Ctrl.Memory().SavePrepare(&s.mem)
	m.Dir.SavePrepare(&s.dir)
	np, nsh := len(m.Procs), m.Ctrl.Memory().NumShards()
	parallelDo(np+2*nsh+2, func(t int) {
		switch {
		case t < np:
			m.Procs[t].saveState(&s.procs[t])
		case t < np+nsh:
			m.Ctrl.Memory().SaveShard(&s.mem, t-np)
		case t < np+2*nsh:
			m.Dir.SaveShard(&s.dir, t-np-nsh)
		case t == np+2*nsh:
			m.Ctrl.Log().Save(&s.log)
		default:
			m.Ctrl.DRAM().Save(&s.dram)
		}
	})
	m.Ctrl.Memory().SaveFinish(&s.mem)
}

// loadParallel is the restore-side counterpart of saveParallel. delta
// selects the copy-on-write path for the sharded state (the caller has
// verified the machine last restored from this same capture).
func (m *Machine) loadParallel(s *MachineSnapshot, delta bool) {
	np, nsh := len(m.Procs), m.Ctrl.Memory().NumShards()
	parallelDo(np+2*nsh+2, func(t int) {
		switch {
		case t < np:
			m.Procs[t].loadState(&s.procs[t])
		case t < np+nsh:
			if delta {
				m.Ctrl.Memory().LoadDeltaShard(&s.mem, t-np)
			} else {
				m.Ctrl.Memory().LoadShard(&s.mem, t-np)
			}
		case t < np+2*nsh:
			if delta {
				m.Dir.LoadDeltaShard(&s.dir, t-np-nsh)
			} else {
				m.Dir.LoadShard(&s.dir, t-np-nsh)
			}
		case t == np+2*nsh:
			if delta {
				m.Ctrl.Log().LoadDelta(&s.log)
			} else {
				m.Ctrl.Log().Load(&s.log)
			}
		default:
			m.Ctrl.DRAM().Load(&s.dram)
		}
	})
	m.Ctrl.Memory().LoadFinish(&s.mem)
}
