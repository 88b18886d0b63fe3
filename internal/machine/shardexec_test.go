package machine

import (
	"runtime"
	"testing"
)

// TestParallelDoSingleTask pins the degenerate dispatch paths: one task
// (any GOMAXPROCS) and any task count at GOMAXPROCS=1 run inline on the
// calling goroutine with zero allocations — a restore loop over a
// 1-shard machine must not pay goroutine or WaitGroup overhead per
// call. (testing.AllocsPerRun itself pins GOMAXPROCS to 1, so the n>1
// probe exercises exactly the single-worker fallback.)
func TestParallelDoSingleTask(t *testing.T) {
	ran := 0
	fn := func(int) { ran++ }
	if avg := testing.AllocsPerRun(100, func() { parallelDo(1, fn) }); avg != 0 {
		t.Fatalf("parallelDo(1, fn) allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { parallelDo(8, fn) }); avg != 0 {
		t.Fatalf("parallelDo(8, fn) at GOMAXPROCS=1 allocates %.1f allocs/op, want 0", avg)
	}
	if ran == 0 {
		t.Fatal("tasks never ran")
	}
	prev := runtime.GOMAXPROCS(1)
	var got []int
	parallelDo(3, func(i int) { got = append(got, i) })
	runtime.GOMAXPROCS(prev)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("sequential fallback ran tasks %v, want [0 1 2]", got)
	}
}

// TestParallelDoRunsEveryTaskOnce drives the concurrent path: several
// workers on more tasks than workers, each task recorded by its own
// index (no shared append), must run every task exactly once.
func TestParallelDoRunsEveryTaskOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 64
	var runs [n]int
	parallelDo(n, func(i int) { runs[i]++ })
	for i, c := range runs {
		if c != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, c)
		}
	}
}
