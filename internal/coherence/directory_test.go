package coherence

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// fakeNode is a minimal L2-controller stand-in.
type fakeNode struct {
	id    int
	lines map[uint64]*fakeLine

	producers    map[int]int // producer -> times recorded
	consumerFrom map[int]int // consumer -> times recorded
	// wsig is the set of lines this node claims to have written; a
	// LastWriterCheck outside it returns NO_WR.
	wsig map[uint64]bool
}

type fakeLine struct {
	data  mem.Word
	dirty bool
	epoch uint64
}

func newFakeNode(id int) *fakeNode {
	return &fakeNode{
		id:           id,
		lines:        map[uint64]*fakeLine{},
		producers:    map[int]int{},
		consumerFrom: map[int]int{},
		wsig:         map[uint64]bool{},
	}
}

func (f *fakeNode) Recall(line uint64, invalidate bool) (mem.Word, bool, uint64, bool) {
	l, ok := f.lines[line]
	if !ok {
		return mem.Word{}, false, 0, false
	}
	data, dirty, epoch := l.data, l.dirty, l.epoch
	if invalidate {
		delete(f.lines, line)
	} else {
		l.dirty = false
	}
	return data, dirty, epoch, true
}

func (f *fakeNode) InvalidateShared(line uint64) { delete(f.lines, line) }

func (f *fakeNode) LastWriterCheck(line uint64, consumer int) (bool, bool) {
	if !f.wsig[line] {
		return false, false
	}
	f.consumerFrom[consumer]++
	return true, true
}

func (f *fakeNode) AddProducer(producer int, exact bool) { f.producers[producer]++ }

func rig(n int) (*Directory, []*fakeNode, *stats.Stats, *mem.Controller) {
	eng := sim.NewEngine()
	st := stats.New(n)
	m := mem.NewMemory()
	ctrl := mem.NewController(eng, st, m, mem.NewDRAM(eng, st, 2), mem.NewLog(st, 4))
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = newFakeNode(i)
		nodes[i] = fakes[i]
	}
	return New(topo.New(n), st, ctrl, nodes), fakes, st, ctrl
}

func TestFirstReadIsRDX(t *testing.T) {
	d, _, _, ctrl := rig(4)
	ctrl.Memory().Write(10, mem.Word{Val: 7})
	r := d.Read(1, 10)
	if r.State != cache.Exclusive {
		t.Fatalf("first read state = %v, want E", r.State)
	}
	if r.Data.Val != 7 {
		t.Fatalf("data = %d, want 7", r.Data.Val)
	}
	if d.LWID(10) != 1 {
		t.Fatalf("RDX must set LW-ID; got %d", d.LWID(10))
	}
	if r.Latency < 150 {
		t.Fatalf("memory read latency %d suspiciously low", r.Latency)
	}
}

func TestReadFromDirtyOwnerRecordsDependence(t *testing.T) {
	d, fakes, st, ctrl := rig(4)
	// Proc 0 writes line 20.
	d.Write(0, 20)
	fakes[0].lines[20] = &fakeLine{data: mem.Word{Val: 99}, dirty: true, epoch: 5}
	fakes[0].wsig[20] = true

	r := d.Read(2, 20)
	if r.State != cache.Shared || r.Data.Val != 99 {
		t.Fatalf("read from owner: state=%v val=%d", r.State, r.Data.Val)
	}
	// Owner downgraded, dirty copy written back and logged with its epoch.
	if fakes[0].lines[20].dirty {
		t.Fatal("owner not downgraded to clean")
	}
	if ctrl.Memory().Read(20).Val != 99 {
		t.Fatal("M->S downgrade must write back to memory")
	}
	es := ctrl.Log().EntriesFor(0)
	if len(es) != 1 || es[0].Epoch != 5 {
		t.Fatalf("downgrade writeback not logged with owner epoch: %+v", es)
	}
	// Dependence: reader's MyProducers[0], owner's MyConsumers[2].
	if fakes[2].producers[0] != 1 {
		t.Fatal("reader did not record producer")
	}
	if fakes[0].consumerFrom[2] != 1 {
		t.Fatal("owner did not record consumer")
	}
	// Piggybacked on the recall: no extra dep messages.
	if st.DepMessages != 0 {
		t.Fatalf("dep messages = %d, want 0 (piggybacked)", st.DepMessages)
	}
	// Second reader: data now comes from memory, LW-ID proc queried
	// with separate messages.
	d.Read(3, 20)
	if st.DepMessages != 2 {
		t.Fatalf("dep messages = %d, want 2 for third-party query", st.DepMessages)
	}
	if fakes[3].producers[0] != 1 || fakes[0].consumerFrom[3] != 1 {
		t.Fatal("second reader dependence not recorded")
	}
}

func TestNoWRClearsStaleLWID(t *testing.T) {
	d, fakes, _, _ := rig(4)
	d.Write(0, 30)
	// Proc 0's WSIG does NOT contain line 30 (e.g. it checkpointed and
	// cleared its registers): the check returns NO_WR.
	fakes[0].lines[30] = &fakeLine{data: mem.Word{Val: 1}}
	r := d.Read(1, 30)
	if d.LWID(30) != noProc {
		t.Fatalf("NO_WR should clear LW-ID, got %d", d.LWID(30))
	}
	// The reader's MyProducers was already (optimistically) updated: a
	// tolerated superset (§3.3.2).
	if fakes[1].producers[0] != 1 {
		t.Fatal("optimistic MyProducers update missing")
	}
	_ = r
}

func TestWriteInvalidatesSharersAndRecordsWW(t *testing.T) {
	d, fakes, _, ctrl := rig(4)
	ctrl.Memory().Write(40, mem.Word{Val: 3})
	d.Read(0, 40) // proc 0: E (RDX)
	fakes[0].lines[40] = &fakeLine{data: mem.Word{Val: 3}}
	fakes[0].wsig[40] = true
	d.Read(1, 40) // downgrade: both sharers
	fakes[1].lines[40] = &fakeLine{data: mem.Word{Val: 3}}

	w := d.Write(2, 40)
	if w.Data.Val != 3 {
		t.Fatalf("write got data %d, want 3", w.Data.Val)
	}
	if _, ok := fakes[0].lines[40]; ok {
		t.Fatal("sharer 0 not invalidated")
	}
	if _, ok := fakes[1].lines[40]; ok {
		t.Fatal("sharer 1 not invalidated")
	}
	if d.LWID(40) != 2 {
		t.Fatalf("LW-ID = %d, want 2", d.LWID(40))
	}
	// WW dependence on the old last writer (0).
	if fakes[2].producers[0] != 1 || fakes[0].consumerFrom[2] != 1 {
		t.Fatal("WW dependence not recorded")
	}
}

func TestOwnershipMigratesCacheToCacheWithoutMemoryWrite(t *testing.T) {
	d, fakes, _, ctrl := rig(4)
	d.Write(0, 50)
	fakes[0].lines[50] = &fakeLine{data: mem.Word{Val: 77}, dirty: true, epoch: 1}
	fakes[0].wsig[50] = true
	w := d.Write(1, 50)
	if w.Data.Val != 77 {
		t.Fatalf("migrated data = %d, want 77", w.Data.Val)
	}
	if ctrl.Memory().Read(50).Val != 0 {
		t.Fatal("M->M transfer must not write memory")
	}
	if ctrl.Log().Len() != 0 {
		t.Fatal("M->M transfer must not log")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	d, fakes, st, ctrl := rig(4)
	ctrl.Memory().Write(60, mem.Word{Val: 5})
	d.Read(0, 60)
	fakes[0].lines[60] = &fakeLine{data: mem.Word{Val: 5}}
	d.Read(1, 60)
	fakes[1].lines[60] = &fakeLine{data: mem.Word{Val: 5}}
	memReadsBefore := st.MemReads
	w := d.Write(0, 60) // upgrade: no data fetch
	if st.MemReads != memReadsBefore {
		t.Fatal("upgrade should not fetch from memory")
	}
	if w.Data.Val != 5 {
		t.Fatal("upgrade lost data value")
	}
	if _, ok := fakes[1].lines[60]; ok {
		t.Fatal("other sharer not invalidated on upgrade")
	}
}

func TestStaleOwnerFallsBackToMemory(t *testing.T) {
	d, _, _, ctrl := rig(4)
	ctrl.Memory().Write(70, mem.Word{Val: 9})
	d.Read(0, 70) // proc 0 becomes E owner
	// Proc 0 silently evicted the clean line (fake holds nothing).
	r := d.Read(1, 70)
	if r.Data.Val != 9 {
		t.Fatalf("fallback read = %d, want 9", r.Data.Val)
	}
	// After the stale owner is dropped, proc 1 is the only holder: E.
	if r.State != cache.Exclusive {
		t.Fatalf("state = %v, want E", r.State)
	}
}

func TestWritebackEvictClearsOwnershipAndLogs(t *testing.T) {
	d, _, st, ctrl := rig(4)
	d.Write(0, 80)
	done := d.WritebackEvict(0, 80, mem.Word{Val: 4}, 2)
	if ctrl.Memory().Read(80).Val != 4 {
		t.Fatal("eviction did not write memory")
	}
	if done == 0 {
		t.Fatal("eviction should occupy a channel")
	}
	if st.L2WritebacksDemand != 1 {
		t.Fatal("demand writeback not counted")
	}
	// Line uncached now, but LW-ID survives displacement (§3.3.1).
	if d.LWID(80) != 0 {
		t.Fatal("LW-ID must survive displacement")
	}
	r := d.Read(1, 80)
	if r.Data.Val != 4 {
		t.Fatal("read after eviction should come from memory")
	}
}

func TestWritebackRetainKeepsOwnership(t *testing.T) {
	d, fakes, st, ctrl := rig(4)
	d.Write(0, 90)
	fakes[0].lines[90] = &fakeLine{data: mem.Word{Val: 8}, dirty: false}
	fakes[0].wsig[90] = true
	d.WritebackRetain(0, 90, mem.Word{Val: 8}, 0, true)
	if ctrl.Memory().Read(90).Val != 8 {
		t.Fatal("retain writeback did not write memory")
	}
	if st.L2WritebacksCkpt != 1 || st.L2WritebacksBg != 1 {
		t.Fatal("checkpoint writeback not counted")
	}
	// Owner unchanged: a later read still forwards to proc 0.
	r := d.Read(1, 90)
	if r.Data.Val != 8 || r.State != cache.Shared {
		t.Fatal("owner lost after retain writeback")
	}
}

func TestDetachProc(t *testing.T) {
	d, fakes, _, ctrl := rig(4)
	ctrl.Memory().Write(100, mem.Word{Val: 1})
	d.Write(0, 100)
	d.Read(1, 101)
	fakes[1].lines[101] = &fakeLine{data: mem.Word{Val: 0}}
	d.DetachProcs([]int{0})
	if d.LWID(100) != noProc {
		t.Fatal("DetachProcs must clear LW-IDs pointing at the proc")
	}
	// Line 100 now uncached: a fresh read gets it from memory.
	r := d.Read(2, 100)
	if r.Data.Val != 1 {
		t.Fatal("detached line should be served from memory")
	}
	// Proc 1's entries untouched.
	if d.LWID(101) != 1 {
		t.Fatal("DetachProcs touched other procs' LW-IDs")
	}
}

// randomDirectory returns a directory of 70 processors (two sharer
// words per line) holding n lines of random owner, LW-ID and sharer
// state.
func randomDirectory(rng *rand.Rand, n int) *Directory {
	d, _, _, _ := rig(70)
	d.grow(n)
	pid := func() int32 { return int32(rng.Intn(71)) - 1 } // noProc included
	for id := 0; id < n; id++ {
		d.owner[id], d.lwid[id] = pid(), pid()
	}
	for i := range d.sharers {
		d.sharers[i] = rng.Uint64() & rng.Uint64()
	}
	return d
}

// detachNaive is the reference: each processor of pids detached from
// every entry in its own pass.
func detachNaive(d *Directory, pids []int) {
	for _, pid := range pids {
		for id := range d.owner {
			if d.owner[id] == int32(pid) {
				d.owner[id] = noProc
			}
			if d.lwid[id] == int32(pid) {
				d.lwid[id] = noProc
			}
		}
		for off := pid >> 6; off < len(d.sharers); off += d.wpp {
			d.sharers[off] &^= 1 << uint(pid&63)
		}
	}
}

// TestDetachProcsMatchesNaive: the one-pass detach of a rollback set
// leaves every column as detaching each member in turn does, on random
// directories and sets that span both sharer words.
func TestDetachProcsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		seed := rng.Int63()
		a := randomDirectory(rand.New(rand.NewSource(seed)), 1000)
		b := randomDirectory(rand.New(rand.NewSource(seed)), 1000)
		pids := rng.Perm(70)[:1+rng.Intn(20)]
		a.DetachProcs(pids)
		detachNaive(b, pids)
		if !slices.Equal(a.owner, b.owner) || !slices.Equal(a.lwid, b.lwid) || !slices.Equal(a.sharers, b.sharers) {
			t.Fatalf("trial %d: DetachProcs(%v) differs from detaching each pid", trial, pids)
		}
	}
}

// TestDetachProcsThenDeltaLoad: DetachProcs marks every entry it
// changes, so a delta load after it restores exactly what a full load
// restores.
func TestDetachProcsThenDeltaLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		d := randomDirectory(rng, 3000)
		var s Snapshot
		n := d.SaveBegin(&s)
		d.SaveRange(&s, 0, n)
		load := func(delta bool) {
			n := d.LoadBegin(&s, delta)
			d.LoadRange(&s, 0, n)
			d.LoadEnd()
		}
		load(false)
		d.DetachProcs(rng.Perm(70)[:1+rng.Intn(20)])
		load(true)
		if !slices.Equal(d.owner, s.Owner) || !slices.Equal(d.lwid, s.LWID) || !slices.Equal(d.sharers, s.Sharers) {
			t.Fatalf("trial %d: delta load after DetachProcs differs from a full load", trial)
		}
	}
}

func TestSameProcReadAfterStaleOwnership(t *testing.T) {
	d, _, _, ctrl := rig(2)
	ctrl.Memory().Write(110, mem.Word{Val: 6})
	d.Read(0, 110) // E at proc 0
	// Proc 0 silently evicts, then re-reads: served from memory, stays E.
	r := d.Read(0, 110)
	if r.Data.Val != 6 || r.State != cache.Exclusive {
		t.Fatalf("re-read after silent evict: %v %d", r.State, r.Data.Val)
	}
}

func TestCheckInvariants(t *testing.T) {
	d, fakes, _, _ := rig(2)
	d.Write(0, 200)
	fakes[0].lines[200] = &fakeLine{data: mem.Word{}, dirty: true}
	d.CheckInvariants(func(pid int, line uint64) (bool, bool) {
		l, ok := fakes[pid].lines[line]
		if !ok {
			return false, false
		}
		return true, l.dirty
	})
}

// TestCheckInvariantsCatchesDirtySharer: a sharer holding a dirty copy
// breaks the protocol (only an owner may hold newer data than memory),
// and CheckInvariants must panic on it.
func TestCheckInvariantsCatchesDirtySharer(t *testing.T) {
	d, fakes, _, _ := rig(2)
	d.Read(0, 300)
	fakes[0].lines[300] = &fakeLine{}
	if r := d.Read(1, 300); r.State != cache.Shared {
		t.Fatalf("second reader got %v, want S", r.State)
	}
	fakes[1].lines[300] = &fakeLine{dirty: true}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "dirty at sharer 1") {
			t.Fatalf("dirty copy at a sharer: CheckInvariants panicked with %v", r)
		}
	}()
	d.CheckInvariants(func(pid int, line uint64) (bool, bool) {
		l, ok := fakes[pid].lines[line]
		return ok, ok && l.dirty
	})
}
