package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/stats"
)

// The sweep workload is the evaluation chapter's full set of cells at
// the quick scale (harness.SweepSpecs, 183 cells), run one at a time on
// a fresh harness.Runner(1): what a cmd/figures user waits on. Every
// cell starts with empty caches. It runs one wide because a two-wide
// sweep on a 2-core shared host spread over a third of its median from
// run to run. The cells of the Figure 6.3 headline (every SPLASH-2 app
// at the large machine, without checkpointing and under Rebound) run
// first: they always complete, so the simulated outputs they produce
// (the sim_digest and the model counters) are the same in every run of
// a seed, however many cells fit in the window. The other cells follow
// in a fixed pseudo-random order, the same for every seed, so that
// whatever prefix of them fits in the window mixes machine sizes and
// figures the way the whole sweep does, and the cell-time median does
// not jump with how far a run gets. After the last cell the sweep
// starts over on a fresh runner.

// sweepCells returns the cells in run order and how many of them form
// the fixed headline set. The smoke scale keeps two headline pairs.
func sweepCells(sc harness.Scale, smoke bool) ([]harness.Spec, int) {
	var cells []harness.Spec
	seen := make(map[string]bool)
	add := func(s harness.Spec) {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			cells = append(cells, s)
		}
	}
	for _, s := range harness.Fig62Specs(sc) {
		if s.Procs == sc.ProcsLarge {
			base := s
			base.Scheme = "none"
			add(base)
			add(s)
		}
	}
	if smoke {
		return cells[:4], 4
	}
	headline := len(cells)
	for _, s := range harness.SweepSpecs(sc) {
		add(s)
	}
	rest := cells[headline:]
	keys := make([]uint64, len(rest))
	for i, s := range rest {
		keys[i] = orderKey(s)
	}
	sort.Sort(byKey{rest, keys})
	return cells, headline
}

// byKey sorts cells by precomputed order keys.
type byKey struct {
	cells []harness.Spec
	keys  []uint64
}

func (b byKey) Len() int           { return len(b.cells) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.cells[i], b.cells[j] = b.cells[j], b.cells[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// orderKey places a cell in the sweep's fixed pseudo-random order: a
// hash of its key with the seed left out.
func orderKey(s harness.Spec) uint64 {
	s.Scale.Seed = 0
	h := fnv.New64a()
	h.Write([]byte(s.Key()))
	return h.Sum64()
}

func runSweep(r *run) error {
	sc := harness.Quick
	sc.Seed = r.opts.seed
	var cells []harness.Spec
	var headline int
	var runner *harness.Runner
	// Set-up is building the cell list and the runner: a figures user
	// pays nothing else before the first cell starts.
	err := r.setup(21, func() (func(), error) {
		cells, headline = sweepCells(sc, r.opts.smoke)
		runner = harness.NewRunner(1)
		return nil, nil
	})
	if err != nil {
		return err
	}

	type done struct {
		cell     harness.Spec
		res      harness.Result
		ms       float64
		poolHit  bool // an earlier cell of this pass shared its ReuseKey
		headline bool
	}
	var ran []done
	var lat []float64
	var instr uint64
	ctx := withLane(context.Background(), 1)
	r.begin()
	for pass := 0; ; pass++ {
		if pass > 0 {
			runner = harness.NewRunner(1)
		}
		reuse := make(map[string]bool)
		stopped := false
		for i, cell := range cells {
			if r.expired() && (pass > 0 || i >= headline) {
				stopped = true
				break
			}
			var res harness.Result
			var err error
			d := r.tr.timed(ctx, "harness", "Runner.RunOne", func(ctx context.Context) {
				res, err = runner.RunOne(ctx, cell)
			})
			ok := r.check(err == nil, "cell %s: %v", cell.Key(), err) &&
				r.check(res.St != nil && res.Cycles > 0 && res.St.TotalInstructions() > 0,
					"cell %s: empty result", cell.Key())
			r.op(ok)
			lat = append(lat, ms(d))
			if !ok {
				continue
			}
			instr += res.St.TotalInstructions()
			key := harness.ReuseKey(cell)
			ran = append(ran, done{cell, res, ms(d), reuse[key], pass == 0 && i < headline})
			reuse[key] = true
			if pass == 0 && i == headline-1 {
				r.fixedDone()
			}
		}
		if stopped {
			break
		}
	}
	elapsed := r.stop()
	r.setE2E("ops_per_s", float64(len(lat))/elapsed)
	cell := r.timing("harness.cell_ms", lat)
	r.setE2E("p50_ms", cell.P50)
	r.setLayer("harness.cell_ms_p50", cell.P50)
	r.setLayer("harness.cell_ms_p90", cell.P90)
	r.setLayer("sim.minstr_per_s", float64(instr)/1e6/elapsed)

	var head []*stats.Stats
	var headCycles []uint64
	byKey := make(map[string]harness.Result)
	hits := 0
	for _, d := range ran {
		if d.poolHit {
			hits++
		}
		if d.headline {
			head = append(head, d.res.St)
			headCycles = append(headCycles, d.res.Cycles)
			byKey[d.cell.Key()] = d.res
			r.addDigest(fmt.Sprintf("%s|cycles=%d|%s", d.cell.Key(), d.res.Cycles, d.res.St.Snapshot()))
		}
	}
	if len(ran) > 0 {
		r.setLayer("harness.pool_hit_pct", float64(hits)/float64(len(ran))*100)
	}
	modelCounters(r, head, headCycles)
	if ovh, ok := reboundOverheadPct(sc, byKey); r.check(ok, "no headline overhead pair completed") {
		r.setLayer("sim.rebound_ovh_pct", ovh)
	}

	// Re-simulate a sample of completed cells on freshly built machines
	// and require identical stats: the runner recycles machines through
	// Reset, and this is the check that recycling never changes a
	// result. The untraced run checks two cells (one recycled, one
	// fresh); the traced run checks the first two of every ten (the
	// headline's none/Rebound pairs make the second a recycled one) and
	// times the phases.
	var sample []done
	for i, d := range ran {
		switch {
		case r.tr != nil && i%10 < 2:
			sample = append(sample, d)
		case r.tr == nil && len(sample) == 0 && d.poolHit:
			sample = append(sample, d)
		case r.tr == nil && len(sample) == 1 && !d.poolHit:
			sample = append(sample, d)
		}
	}
	var buildMS, runNS []float64
	var runInstr uint64
	var recycledMS, freshMS float64
	for _, d := range sample {
		ctx, end := r.tr.begin(withLane(context.Background(), 2), "harness", "fresh rebuild")
		var m *machine.Machine
		var err error
		var cycles uint64
		b := r.tr.timed(ctx, "harness", "harness.Build", func(context.Context) {
			m, err = harness.Build(d.cell)
		})
		if !r.check(err == nil, "rebuild %s: %v", d.cell.Key(), err) {
			end()
			continue
		}
		run := r.tr.timed(ctx, "machine", "Machine.Run", func(context.Context) {
			cycles = uint64(m.Run(d.cell.Scale.InstrPerProc * uint64(d.cell.Procs)))
			m.FinalizeStats()
		})
		end()
		r.check(cycles == d.res.Cycles && m.St.Snapshot() == d.res.St.Snapshot(),
			"cell %s: runner result differs from a fresh machine's", d.cell.Key())
		buildMS = append(buildMS, ms(b))
		runNS = append(runNS, float64(run))
		runInstr += m.St.TotalInstructions()
		if d.poolHit {
			recycledMS += d.ms
			freshMS += ms(b + run)
		}
	}
	if r.tr != nil {
		r.setLayer("harness.build_ms_p50", r.timing("harness.build_ms", buildMS).P50)
		var total float64
		for _, ns := range runNS {
			total += ns
		}
		if runInstr > 0 {
			r.setLayer("machine.run_ns_per_instr", total/float64(runInstr))
		}
		if freshMS > 0 {
			r.setLayer("harness.recycle_saving_pct", (1-recycledMS/freshMS)*100)
		}
	}
	return nil
}

// reboundOverheadPct is the Figure 6.3 headline: the mean over SPLASH-2
// apps on the large machine of Rebound's cycles over the no-checkpoint
// baseline's, minus one, in percent (clamped at 0 as harness.Overhead
// does), over the pairs present in results.
func reboundOverheadPct(sc harness.Scale, results map[string]harness.Result) (float64, bool) {
	var sum float64
	n := 0
	for _, s := range harness.Fig62Specs(sc) {
		base := s
		base.Scheme = "none"
		rb, rn := results[s.Key()], results[base.Key()]
		if s.Procs != sc.ProcsLarge || rb.Cycles == 0 || rn.Cycles == 0 {
			continue
		}
		sum += max(float64(rb.Cycles)/float64(rn.Cycles)-1, 0) * 100
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// modelCounters sets the simulated per-layer metrics from the stats of
// a fixed set of simulations. They are properties of the modelled
// machine, not of the simulator's speed: a change that only makes the
// simulator faster must leave every one of them unchanged.
func modelCounters(r *run, sts []*stats.Stats, cycles []uint64) {
	if len(sts) == 0 {
		return
	}
	var instr, l1h, l1m, l2h, l2m, coh, dep, depStall, sigT, sigFP uint64
	var logE, memQ, memAcc, ckpts, proto, stall, procCycles uint64
	for i, st := range sts {
		instr += st.TotalInstructions()
		l1h, l1m, l2h, l2m = l1h+st.L1Hits, l1m+st.L1Misses, l2h+st.L2Hits, l2m+st.L2Misses
		coh, dep, depStall = coh+st.CohMessages, dep+st.DepMessages, depStall+st.DepStallCycles
		sigT, sigFP = sigT+st.WSIGTests, sigFP+st.WSIGFalsePositives
		logE, memQ, memAcc = logE+st.LogEntries, memQ+st.MemQueueCycles, memAcc+st.MemReads+st.MemWrites
		ckpts += uint64(len(st.Checkpoints))
		proto += st.ProtoMessages
		wb, imb, sync := st.StallTotals()
		stall += wb + imb + sync
		procCycles += cycles[i] * uint64(st.NProcs)
	}
	pct := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b) * 100
	}
	perK := func(a uint64) float64 {
		if instr == 0 {
			return 0
		}
		return float64(a) / float64(instr) * 1000
	}
	var cyc uint64
	for _, c := range cycles {
		cyc += c
	}
	r.setLayer("sim.instr_m", float64(instr)/1e6)
	r.setLayer("sim.cycles_m", float64(cyc)/1e6)
	r.setLayer("cache.l1_miss_pct", pct(l1m, l1h+l1m))
	r.setLayer("cache.l2_miss_pct", pct(l2m, l2h+l2m))
	r.setLayer("coherence.msgs_per_kinstr", perK(coh))
	r.setLayer("dep.msgs_per_kinstr", perK(dep))
	r.setLayer("dep.stall_kcycles", float64(depStall)/1e3)
	r.setLayer("sig.fp_pct", pct(sigFP, sigT))
	r.setLayer("mem.log_entries_per_kinstr", perK(logE))
	if memAcc > 0 {
		r.setLayer("mem.queue_cycles_per_access", float64(memQ)/float64(memAcc))
	}
	r.setLayer("core.checkpoints", float64(ckpts))
	if ckpts > 0 {
		r.setLayer("core.proto_msgs_per_ckpt", float64(proto)/float64(ckpts))
	}
	r.setLayer("core.ckpt_stall_pct", pct(stall, procCycles))
}
