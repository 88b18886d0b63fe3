package machine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cow"
)

// The parallel snapshot plane. Event execution stays sequential on one
// sim.Engine — the functional directory protocol mutates other
// processors' caches synchronously inside one event, so any parallel
// event schedule would change the interleaving and break the
// byte-identity guarantee. What can run in parallel is the machine-state
// plane: snapshot, restore and fork decompose into disjoint tasks — one
// per processor (caches, Dep registers, streams, checkpoint history),
// Config.Shards contiguous line-ID ranges each of the memory words and
// the directory columns, plus the log and the DRAM model. The tasks
// touch disjoint memory by construction, so running them on all cores
// is free of both races and ordering effects: the resulting snapshot
// bytes are identical at any GOMAXPROCS and any range count.

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

// idRange returns the i-th of k contiguous ranges [lo, hi) splitting
// [0, n). Range edges fall on cow.PageSize boundaries, so the dirty
// pages of a copy-on-write restore never straddle two tasks; trailing
// ranges may be empty.
func idRange(n, k, i int) (lo, hi int) {
	pages := (n + cow.PageSize - 1) / cow.PageSize
	per := (pages + k - 1) / k * cow.PageSize
	return min(i*per, n), min((i+1)*per, n)
}

// saveParallel captures the decomposable machine state into s: every
// processor, the memory and directory ID ranges, the log and the DRAM
// model, as independent tasks. The caller handles the scalar and
// engine state around it.
func (m *Machine) saveParallel(s *MachineSnapshot) {
	memory := m.Ctrl.Memory()
	memN, dirN := memory.SaveBegin(&s.mem), m.Dir.SaveBegin(&s.dir)
	np, k := len(m.Procs), max(m.Cfg.Shards, 1)
	parallelDo(np+2*k+2, func(t int) {
		switch {
		case t < np:
			m.Procs[t].saveState(&s.procs[t])
		case t < np+k:
			lo, hi := idRange(memN, k, t-np)
			memory.SaveRange(&s.mem, lo, hi)
		case t < np+2*k:
			lo, hi := idRange(dirN, k, t-np-k)
			m.Dir.SaveRange(&s.dir, lo, hi)
		case t == np+2*k:
			m.Ctrl.Log().Save(&s.log)
		default:
			m.Ctrl.DRAM().Save(&s.dram)
		}
	})
}

// loadParallel is the restore-side counterpart of saveParallel. delta
// selects the copy-on-write path for the per-line arrays (the caller
// has verified the machine last restored from this same capture).
func (m *Machine) loadParallel(s *MachineSnapshot, delta bool) {
	memory := m.Ctrl.Memory()
	memN, dirN := memory.LoadBegin(&s.mem, delta), m.Dir.LoadBegin(&s.dir, delta)
	np, k := len(m.Procs), max(m.Cfg.Shards, 1)
	parallelDo(np+2*k+2, func(t int) {
		switch {
		case t < np:
			m.Procs[t].loadState(&s.procs[t])
		case t < np+k:
			lo, hi := idRange(memN, k, t-np)
			memory.LoadRange(&s.mem, lo, hi)
		case t < np+2*k:
			lo, hi := idRange(dirN, k, t-np-k)
			m.Dir.LoadRange(&s.dir, lo, hi)
		case t == np+2*k:
			if delta {
				m.Ctrl.Log().LoadDelta(&s.log)
			} else {
				m.Ctrl.Log().Load(&s.log)
			}
		default:
			m.Ctrl.DRAM().Load(&s.dram)
		}
	})
	memory.LoadEnd()
	m.Dir.LoadEnd()
}
