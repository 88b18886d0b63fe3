package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// The campaign workload is the cmd/campaign user's path: fault
// campaigns on campaign.Engine over a two-wide runner and an on-disk
// store. It cycles through four cells of FFT on 16 processors — under
// Rebound, Rebound_2L and Global_DWB with the unsharded state layout,
// and under Rebound with 4 state shards (the format-2 snapshot and the
// parallel restore path) — each campaign with 64 trials, 2 faults per
// trial and a 60 000-cycle window. The seed places the faults: every
// campaign's seed derives from it. The cells keep the quick scale's own
// program seed, because a different program stream changes what every
// trial of a run costs (by up to a third) and would make the seed, not
// the code, decide the numbers. The cells share one application and
// machine size so that campaigns of every cell take about as long, and
// the median does not jump with how many of each fit in the window. Set-up warms and persists each cell's snapshot,
// as the first campaign on a cell would; every measured campaign then
// starts from one store read and snapshot decode, and its trials are
// short, so restore, recovery and the codec weigh more than the
// per-instruction loop.

// campaignCells returns the base specs and trial counts of one cycle.
func campaignCells(sc harness.Scale, smoke bool) ([]harness.Spec, []int) {
	if smoke {
		return []harness.Spec{
				{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: sc},
				{App: "FFT", Procs: 4, Scheme: "Rebound", Scale: sc, Shards: 4},
			},
			[]int{8, 8}
	}
	return []harness.Spec{
			{App: "FFT", Procs: 16, Scheme: "Rebound", Scale: sc},
			{App: "FFT", Procs: 16, Scheme: "Rebound_2L", Scale: sc},
			{App: "FFT", Procs: 16, Scheme: "Global_DWB", Scale: sc},
			{App: "FFT", Procs: 16, Scheme: "Rebound", Scale: sc, Shards: 4},
		},
		[]int{64, 64, 64, 64}
}

func campaignSpec(base harness.Spec, trials int, seed uint64) campaign.Spec {
	return campaign.Spec{Base: base, Trials: trials, Faults: 2, Window: 60_000, Seed: seed}
}

func runCampaign(r *run) error {
	cells, trials := campaignCells(harness.Quick, r.opts.smoke)
	var st *store.Store
	var eng *campaign.Engine
	setups := 0
	err := r.setup(3, func() (func(), error) {
		setups++
		var err error
		if st, err = store.Open(filepath.Join(r.dir, fmt.Sprintf("store-%d", setups)), 0); err != nil {
			return nil, err
		}
		eng = campaign.New(harness.NewRunner(2), st)
		for _, base := range cells {
			if err := campaign.NewTrialRunnerStored(campaignSpec(base, 1, 0), st).Prewarm(1); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}

	var first []campaignRun // the first campaign on each cell: the fixed digest set
	var lat []float64
	nTrials := 0
	ctx := withLane(context.Background(), 1)
	r.begin()
	for k := 0; k < len(cells) || !r.expired(); k++ {
		cell := k % len(cells)
		spec := campaignSpec(cells[cell], trials[cell], r.opts.seed*1000+uint64(k))
		var rep *campaign.Report
		var err error
		d := r.tr.timed(ctx, "campaign", "Engine.Run", func(ctx context.Context) {
			rep, err = eng.Run(ctx, spec)
		})
		lat = append(lat, ms(d))
		if !r.check(err == nil, "campaign %d: %v", k, err) ||
			!r.check(rep.Trials == spec.Trials, "campaign %d: %d trials, want %d", k, rep.Trials, spec.Trials) {
			for i := 0; i < spec.Trials; i++ {
				r.op(false)
			}
			continue
		}
		for _, tr := range rep.TrialRecords {
			r.op(r.check(tr.VerifyOK, "campaign %d trial %d: %s", k, tr.Index, tr.VerifyError))
		}
		nTrials += rep.Trials
		if k < len(cells) {
			first = append(first, campaignRun{spec, rep})
		}
		if k == len(cells)-1 {
			r.fixedDone()
		}
	}
	elapsed := r.stop()
	r.setE2E("ops_per_s", float64(nTrials)/elapsed)
	r.setE2E("p50_ms", r.timing("campaign.report_ms", lat).P50)

	var mttr, avail float64
	var rollbacks, nt int
	var irecSum float64
	for _, d := range first {
		data, err := json.Marshal(d.rep)
		r.check(err == nil, "marshal report: %v", err)
		r.addDigest(string(data))
		// The report must be exactly what campaign.Assemble derives from
		// its own trial records.
		again, err := campaign.Assemble(d.spec, d.rep.TrialRecords)
		if r.check(err == nil, "assemble: %v", err) {
			data2, _ := json.Marshal(again)
			r.check(bytes.Equal(data, data2), "report %s is not its trials' aggregate", d.rep.Key)
		}
		mttr += d.rep.Recovery.Mean / 1e3
		avail += d.rep.Availability * 100
		rollbacks += d.rep.Rollbacks
		nt += d.rep.Trials
		irecSum += d.rep.IREC.Mean * float64(d.rep.IREC.N)
	}
	if n := float64(len(first)); n > 0 {
		r.setLayer("campaign.mttr_kcycles", mttr/n)
		r.setLayer("campaign.availability_pct", avail/n)
		r.setLayer("core.rollbacks_per_trial", float64(rollbacks)/float64(nt))
		if rollbacks > 0 {
			r.setLayer("core.irec_procs_mean", irecSum/float64(rollbacks))
		}
	}

	// The snapshot engine's economics, checked on every run for the
	// first unsharded and the sharded cell: a runner for a stored cell
	// loads the warm snapshot with one read, warms nothing, forks the
	// second worker and never falls back to fresh builds.
	for _, base := range []harness.Spec{cells[0], cells[len(cells)-1]} {
		tr := campaign.NewTrialRunnerStored(campaignSpec(base, 1, 0), st)
		if !r.check(tr.Prewarm(2) == nil, "prewarm %s", base.Key()) {
			continue
		}
		warmups, loads, forks, fresh := tr.Counters()
		r.check(warmups == 0 && loads == 1 && forks == 1 && fresh == 0,
			"cell %s: warmups=%d loads=%d forks=%d fresh=%d, want 0/1/1/0", base.Key(), warmups, loads, forks, fresh)
	}
	if r.tr != nil {
		replayCampaigns(r, st, first)
	}
	return nil
}

type campaignRun struct {
	spec campaign.Spec
	rep  *campaign.Report
}

// Mirrors of the campaign engine's trial-executor constants (see
// campaign.warm and campaign.runPhase). The replay below compares its
// trials with TrialRunner's, so a drift shows as replay_match=0.
const (
	warmSettleLimit = sim.Cycle(400_000)
	settleSlice     = sim.Cycle(25_000)
)

// replayCampaigns is the traced run's look inside the campaign layer.
// For the first campaign on each cell it times the snapshot engine's
// building blocks with direct calls (warm, settle, snapshot, encode,
// decode, fork, store reads and writes), then replays a sample of the
// campaign's trials phase by phase through public calls — restore,
// fault launch and window, settle, verify, record — and requires each
// replayed trial to equal TrialRunner.Run's and the engine's record.
func replayCampaigns(r *run, st *store.Store, first []campaignRun) {
	ns, err := st.Namespace("bench-replay")
	if !r.check(err == nil, "replay namespace: %v", err) {
		return
	}
	var ph replayPhases
	var trialMS []float64
	var warmMS, settleWarmMS, snapMS, forkMS, putSnapMS, getSnapMS []float64
	var sts []*stats.Stats
	var cycles []uint64
	match := true
	var warmups, forks, fresh uint64
	codecSeen := make(map[string]bool)
	for li, d := range first {
		spec := d.spec
		ctx := withLane(context.Background(), 10+li)
		ctx, end := r.tr.begin(ctx, "campaign", "replay "+spec.Base.Key())

		var m *machine.Machine
		warmMS = append(warmMS, ms(r.tr.timed(ctx, "campaign", "warm", func(context.Context) {
			m, err = harness.Build(spec.Base)
			if err == nil {
				m.Run(spec.Base.Scale.InstrPerProc * uint64(spec.Base.Procs) / 4)
			}
		})))
		if !r.check(err == nil, "replay build: %v", err) {
			end()
			continue
		}
		var settled bool
		settleWarmMS = append(settleWarmMS, ms(r.tr.timed(ctx, "machine", "Machine.SettleForSnapshot", func(context.Context) {
			settled = m.SettleForSnapshot(warmSettleLimit)
		})))
		snap := new(machine.MachineSnapshot)
		snapMS = append(snapMS, ms(r.tr.timed(ctx, "machine", "Machine.Snapshot", func(context.Context) {
			err = m.Snapshot(snap)
		})))
		if !r.check(settled && err == nil, "replay snapshot %s: settled=%t err=%v", spec.Base.Key(), settled, err) {
			end()
			continue
		}
		var payload []byte
		enc := r.tr.timed(ctx, "machine", "Machine.EncodeSnapshot", func(context.Context) {
			payload, err = m.EncodeSnapshot(snap)
		})
		r.check(err == nil, "encode: %v", err)
		key := "bench-replay|" + spec.Base.Key()
		putSnapMS = append(putSnapMS, ms(r.tr.timed(ctx, "store", "Store.PutSnapshot", func(context.Context) {
			err = st.PutSnapshot(key, payload)
		})))
		r.check(err == nil, "put snapshot: %v", err)
		var got []byte
		var ok bool
		getSnapMS = append(getSnapMS, ms(r.tr.timed(ctx, "store", "Store.GetSnapshot", func(context.Context) {
			got, ok, err = st.GetSnapshot(key)
		})))
		r.check(ok && err == nil && bytes.Equal(got, payload), "snapshot store round trip: ok=%t err=%v", ok, err)
		cold, err := harness.Build(spec.Base)
		if !r.check(err == nil, "build: %v", err) {
			end()
			continue
		}
		var decoded *machine.MachineSnapshot
		dec := r.tr.timed(ctx, "machine", "Machine.DecodeSnapshot", func(context.Context) {
			decoded, err = cold.DecodeSnapshot(payload)
		})
		r.check(err == nil, "decode: %v", err)
		if err == nil {
			r.check(cold.Restore(decoded) == nil, "restore decoded snapshot")
		}
		scheme, err := harness.SchemeFor(spec.Base.Scheme)
		if r.check(err == nil, "scheme: %v", err) {
			forkMS = append(forkMS, ms(r.tr.timed(ctx, "machine", "Machine.Fork", func(context.Context) {
				_, err = m.Fork(snap, scheme)
			})))
			r.check(err == nil, "fork: %v", err)
		}
		shard := fmt.Sprintf("%dshard", max(spec.Base.Shards, 1))
		if !codecSeen[shard] {
			codecSeen[shard] = true
			r.setLayer("machine.encode_ms_"+shard, ms(enc))
			r.setLayer("machine.decode_ms_"+shard, ms(dec))
			r.setLayer("machine.snapshot_kb_"+shard, float64(len(payload))/1024)
		}

		trunner := campaign.NewTrialRunnerStored(spec, st)
		r.check(trunner.Prewarm(2) == nil, "prewarm")
		step := spec.Trials / 8
		if step < 1 {
			step = 1
		}
		for i := 0; i < spec.Trials; i += step {
			var want campaign.Trial
			trialMS = append(trialMS, ms(r.tr.timed(ctx, "campaign", "TrialRunner.Run", func(context.Context) {
				want, err = trunner.Run(i)
			})))
			if !r.check(err == nil, "trial %d: %v", i, err) {
				continue
			}
			got := replayTrial(r, ctx, m, snap, spec, i, ns, &ph)
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(got)
			c, _ := json.Marshal(d.rep.TrialRecords[i])
			if !bytes.Equal(a, b) {
				match = false
			}
			r.check(bytes.Equal(a, c), "trial %d of %s: TrialRunner and Engine records differ", i, d.rep.Key)
			cp := stats.New(m.St.NProcs)
			m.St.CopyInto(cp)
			sts = append(sts, cp)
			cycles = append(cycles, uint64(m.St.EndCycle))
		}
		w, _, f, fr := trunner.Counters()
		warmups, forks, fresh = warmups+w, forks+f, fresh+fr
		end()
	}
	r.check(fresh == 0, "%d trials fell back to fresh builds", fresh)
	r.setLayer("campaign.warmups", float64(warmups))
	r.setLayer("campaign.forks", float64(forks))
	r.setLayer("campaign.fresh", float64(fresh))
	r.setLayer("campaign.warm_ms", summarize(warmMS).P50)
	r.setLayer("machine.settle_ms", summarize(settleWarmMS).P50)
	r.setLayer("machine.snapshot_ms", summarize(snapMS).P50)
	r.setLayer("machine.fork_ms", summarize(forkMS).P50)
	r.setLayer("store.put_snapshot_ms", summarize(putSnapMS).P50)
	r.setLayer("store.get_snapshot_ms", summarize(getSnapMS).P50)
	trial := r.timing("campaign.trial_ms", trialMS)
	r.setLayer("campaign.trial_ms_p50", trial.P50)
	r.setLayer("campaign.trial_ms_p90", trial.P90)
	if match {
		r.setLayer("campaign.replay_match", 1)
		r.setLayer("machine.restore_us_p50", r.timing("machine.restore_us", ph.restoreUS).P50)
		r.setLayer("fault.run_ms_p50", r.timing("fault.run_ms", ph.runMS).P50)
		r.setLayer("fault.settle_ms_p50", r.timing("fault.settle_ms", ph.settleMS).P50)
		r.setLayer("fault.verify_us_p50", r.timing("fault.verify_us", ph.verifyUS).P50)
		r.setLayer("store.put_trial_us_p50", r.timing("store.put_trial_us", ph.putUS).P50)
	} else {
		// The replay no longer mirrors the engine: its phase split would
		// describe a different computation, so it is left out.
		r.setLayer("campaign.replay_match", 0)
	}
	modelCounters(r, sts, cycles)
}

// replayPhases collects the durations of the replayed trials' phases.
type replayPhases struct {
	restoreUS, runMS, settleMS, verifyUS, putUS []float64
}

// replayTrial runs trial index of spec on m from snap the way
// campaign.runPhase does, one span per phase, and returns the record.
func replayTrial(r *run, ctx context.Context, m *machine.Machine, snap *machine.MachineSnapshot,
	spec campaign.Spec, index int, ns *store.Namespace, ph *replayPhases) campaign.Trial {
	ctx, end := r.tr.begin(ctx, "campaign", "replay trial")
	defer end()
	var err error
	ph.restoreUS = append(ph.restoreUS, us(r.tr.timed(ctx, "machine", "Machine.Restore", func(context.Context) {
		err = m.Restore(snap)
	})))
	r.check(err == nil, "restore: %v", err)
	fs := fault.Spec{
		Faults:           spec.Faults,
		Window:           sim.Cycle(spec.Window),
		MaxDetectLatency: sim.Cycle(spec.DetectLatency),
		Seed:             campaign.TrialSeed(spec, index),
	}
	var inj *fault.Injector
	L := m.Cfg.DetectLatency
	ph.runMS = append(ph.runMS, ms(r.tr.timed(ctx, "fault", "launch+window", func(context.Context) {
		inj = fault.New(m, fs)
		inj.Launch()
		m.RunCycles(inj.ResolvedWindow() + 2*L)
	})))
	ph.settleMS = append(ph.settleMS, ms(r.tr.timed(ctx, "fault", "settle", func(context.Context) {
		maxSlices := 160 + int((inj.ResolvedWindow()+L)/settleSlice)
		for i := 0; i < maxSlices && !inj.Quiesced(); i++ {
			m.RunCycles(settleSlice)
		}
		if inj.Quiesced() {
			m.RunCycles(2 * L)
		}
		m.FinalizeStats()
	})))
	tr := campaign.Trial{
		Index: index, Seed: fs.Seed, Injected: inj.Injected, Detected: inj.Detected,
		Tainted: inj.TaintedEver.Elems(), EndCycle: uint64(m.St.EndCycle),
		Instructions: m.St.TotalInstructions(),
	}
	for _, rb := range m.St.Rollbacks {
		tr.Recoveries = append(tr.Recoveries, uint64(rb.End-rb.Start))
		tr.IRECSizes = append(tr.IRECSizes, rb.Size)
		tr.Restored += rb.Restored
		tr.WastedCycles += uint64(rb.MaxRollbackCycles) * uint64(rb.Size)
	}
	for _, c := range m.St.RollStall {
		tr.RollStallCycles += c
	}
	ph.verifyUS = append(ph.verifyUS, us(r.tr.timed(ctx, "fault", "Injector.Verify", func(context.Context) {
		err = inj.Verify()
	})))
	if err != nil {
		tr.VerifyError = err.Error()
	} else {
		tr.VerifyOK = true
	}
	ph.putUS = append(ph.putUS, us(r.tr.timed(ctx, "store", "Namespace.PutJSON", func(context.Context) {
		err = ns.PutJSON(campaign.TrialRecordName(index), &tr)
	})))
	r.check(err == nil, "put trial: %v", err)
	return tr
}
