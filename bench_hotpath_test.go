package repro

// Hot-path benchmarks (see internal/benchhot). Run with
//
//	go test -bench=Hot -benchmem -run '^$' .
//
// cmd/benchhot runs the same bodies and records the results in
// BENCH_hotpath.json, the repo's performance trajectory.

import (
	"testing"

	"repro/internal/benchhot"
)

func BenchmarkHotSingleCell(b *testing.B)            { benchhot.SingleCell(b) }
func BenchmarkHotRun256(b *testing.B)                { benchhot.Run256(b) }
func BenchmarkHotFig62Sweep(b *testing.B)            { benchhot.Fig62Sweep(b) }
func BenchmarkHotServicePath(b *testing.B)           { benchhot.ServicePath(b) }
func BenchmarkHotCampaignTrial(b *testing.B)         { benchhot.CampaignTrial(b) }
func BenchmarkHotCampaignTrialParallel(b *testing.B) { benchhot.CampaignTrialParallel(b) }
