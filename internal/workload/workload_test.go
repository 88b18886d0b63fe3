package workload

import (
	"testing"
	"testing/quick"
)

func TestAllProfilesWellFormed(t *testing.T) {
	apps := All()
	if len(apps) != 20 {
		t.Fatalf("got %d profiles, want 20 (12 SPLASH-2 + Raytrace + 4 PARSEC + Apache + ZipfKV + Uniform)", len(apps))
	}
	seen := map[string]bool{}
	for _, p := range apps {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("bad or duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if p.MemRatio <= 0 || p.MemRatio >= 1 {
			t.Fatalf("%s: MemRatio %f out of range", p.Name, p.MemRatio)
		}
		if p.WriteFrac < 0 || p.WriteFrac > 1 {
			t.Fatalf("%s: WriteFrac %f out of range", p.Name, p.WriteFrac)
		}
		if p.PrivateLines <= 0 {
			t.Fatalf("%s: no private footprint", p.Name)
		}
	}
	if ByName("Ocean") == nil || ByName("Apache") == nil || ByName("Uniform") == nil {
		t.Fatal("ByName lookup failed")
	}
	if ByName("NoSuchApp") != nil {
		t.Fatal("ByName invented a profile")
	}
}

func TestAddressRegionsDisjoint(t *testing.T) {
	pa := PrivateLine(63, 1<<20)
	ca := ClusterLine(15, 1<<19)
	ga := GlobalLine(1 << 19)
	if pa >= clusterBase {
		t.Fatal("private region overlaps cluster region")
	}
	if ca >= globalBase || ca < clusterBase {
		t.Fatal("cluster region out of bounds")
	}
	if ga < globalBase {
		t.Fatal("global region out of bounds")
	}
	if PrivateLine(0, 0) == 0 {
		t.Fatal("line 0 must stay unused (sync lines live elsewhere)")
	}
}

func TestStreamDeterminismAndSnapshot(t *testing.T) {
	p := Uniform()
	a := NewStream(p, 2, 8, 42)
	b := NewStream(p, 2, 8, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverge at op %d", i)
		}
	}
	snap := a.Snapshot()
	want := make([]Op, 200)
	for i := range want {
		want[i] = a.Next()
	}
	a.Restore(snap)
	for i := range want {
		if got := a.Next(); got != want[i] {
			t.Fatalf("replay diverges at op %d: %v vs %v", i, got, want[i])
		}
	}
}

func TestStreamsDifferAcrossCores(t *testing.T) {
	p := Uniform()
	a := NewStream(p, 0, 8, 42)
	b := NewStream(p, 1, 8, 42)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 200 {
		t.Fatal("different cores produced identical streams")
	}
}

func TestLockUnlockPairing(t *testing.T) {
	p := Raytrace() // lock-heavy
	s := NewStream(p, 0, 4, 7)
	depth := 0
	locks := 0
	for i := 0; i < 50000; i++ {
		op := s.Next()
		switch op.Kind {
		case Lock:
			if depth != 0 {
				t.Fatal("nested lock emitted")
			}
			depth++
			locks++
		case Unlock:
			if depth != 1 {
				t.Fatal("unlock without lock")
			}
			depth--
		}
	}
	if locks == 0 {
		t.Fatal("lock-heavy profile emitted no locks")
	}
}

func TestBarrierCadence(t *testing.T) {
	p := ByName("Ocean")
	s := NewStream(p, 0, 4, 9)
	var instrs uint64
	var last uint64
	barriers := 0
	for i := 0; i < 200000 && barriers < 10; i++ {
		op := s.Next()
		instrs += op.Instructions()
		if op.Kind == Barrier {
			gap := instrs - last
			last = instrs
			if gap > uint64(2*p.BarrierPeriod) {
				t.Fatalf("barrier gap %d far exceeds period %d", gap, p.BarrierPeriod)
			}
			barriers++
		}
	}
	if barriers < 10 {
		t.Fatal("Ocean emitted too few barriers")
	}
}

func TestIOCadence(t *testing.T) {
	p := Uniform()
	p.IOPeriod = 5000
	s := NewStream(p, 0, 4, 3)
	ios := 0
	for i := 0; i < 100000; i++ {
		if s.Next().Kind == OutputIO {
			ios++
		}
	}
	if ios < 3 {
		t.Fatalf("IO ops = %d, want several", ios)
	}
}

func TestMemRatioApproximatelyHonoured(t *testing.T) {
	p := Uniform() // MemRatio 0.34
	s := NewStream(p, 1, 8, 5)
	var instrs, memops uint64
	for i := 0; i < 200000; i++ {
		op := s.Next()
		instrs += op.Instructions()
		if op.Kind == Load || op.Kind == Store {
			memops++
		}
	}
	ratio := float64(memops) / float64(instrs)
	if ratio < 0.15 || ratio > 0.5 {
		t.Fatalf("memory ratio %.3f wildly off target %.2f", ratio, p.MemRatio)
	}
}

// Property: ops are well-formed for any profile and core.
func TestQuickOpsWellFormed(t *testing.T) {
	apps := All()
	f := func(seed uint64, coreRaw, appRaw uint8) bool {
		p := apps[int(appRaw)%len(apps)]
		n := 8
		s := NewStream(p, int(coreRaw)%n, n, seed)
		for i := 0; i < 300; i++ {
			op := s.Next()
			switch op.Kind {
			case Compute:
				if op.Arg == 0 {
					return false
				}
			case Load, Store:
				if op.Arg == 0 {
					return false // line 0 reserved
				}
			case Barrier, Lock, Unlock, OutputIO:
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStreamNext measures one op drawn from a core's stream, for
// three SPLASH-2 profiles on core 3 of 16.
func BenchmarkStreamNext(b *testing.B) {
	for _, name := range []string{"FFT", "Barnes", "Ocean"} {
		b.Run(name, func(b *testing.B) {
			s := NewStream(ByName(name), 3, 16, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkOp = s.Next()
			}
		})
	}
}

// sinkOp keeps BenchmarkStreamNext's result live.
var sinkOp Op
