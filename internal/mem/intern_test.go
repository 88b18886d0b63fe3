package mem

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkLineTableID times the intern of a line the table already
// holds, the steady-state call of every memory transaction, on a table
// of 32,768 lines spread over a 2^24-line address space, drawn in a
// random order.
func BenchmarkLineTableID(b *testing.B) {
	const lines = 1 << 15
	rng := sim.NewRNG(1)
	t := NewLineTable()
	addrs := make([]uint64, lines)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 24))
		t.ID(addrs[i])
	}
	order := make([]uint64, 1<<16)
	for i := range order {
		order[i] = addrs[rng.Intn(lines)]
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += int64(t.ID(order[i&(len(order)-1)]))
	}
	if sink < 0 {
		b.Fatal("negative ID")
	}
}
