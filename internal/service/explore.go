package service

// The scheme-space exploration job kind: POST /v1/explore and GET
// /v1/explore/{key}, with the lifecycle every background job shares
// (jobs.go). An exploration is a closed loop of campaigns and
// fault-free runs; its units are cell evaluations. They persist
// through the shared explore/cells namespace and the report through
// explore/reports, so a daemon killed mid-exploration resumes from its
// evaluated cells, and two explorations whose spaces intersect share
// the intersection's evaluations. Progress and economics are visible
// in /metrics (explores_running, explore_cells_done,
// explore_cells_evaluated, explore_cells_from_store).

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/store"
)

// ExploreRequest is the JSON body of POST /v1/explore: the workload,
// the search space (axes), the campaign shape and the strategy.
type ExploreRequest struct {
	App   string `json:"app"`
	Procs int    `json:"procs,omitempty"` // 0: scale default for the app's suite
	Scale string `json:"scale,omitempty"` // "quick"|"full"; empty: server default

	Schemes   []string `json:"schemes"`
	Intervals []uint64 `json:"intervals,omitempty"`
	WSIGBits  []int    `json:"wsigbits,omitempty"`
	DepSets   []int    `json:"depsets,omitempty"`
	Shards    []int    `json:"shards,omitempty"`

	Trials        int    `json:"trials"`
	Faults        int    `json:"faults,omitempty"`
	Window        uint64 `json:"window,omitempty"`
	DetectLatency uint64 `json:"detect_latency,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`

	Strategy string `json:"strategy,omitempty"` // "halving" (default) | "grid"
}

// Spec resolves the request against the server's default scale and
// validates it, returning the normalized spec.
func (er ExploreRequest) Spec(def harness.Scale) (explore.Spec, error) {
	sc := def
	if er.Scale != "" {
		var err error
		if sc, err = harness.ScaleByName(er.Scale); err != nil {
			return explore.Spec{}, err
		}
	}
	es := explore.Spec{
		App: er.App, Procs: er.Procs, Scale: sc,
		Schemes: er.Schemes, Intervals: er.Intervals, WSIGBits: er.WSIGBits,
		DepSets: er.DepSets, Shards: er.Shards,
		Trials: er.Trials, Faults: er.Faults, Window: er.Window,
		DetectLatency: er.DetectLatency, Seed: er.Seed, Strategy: er.Strategy,
	}
	if err := es.Validate(); err != nil {
		return explore.Spec{}, err
	}
	return es.Normalize(), nil
}

// ExploreResponse answers both exploration endpoints. Done/Total count
// cell evaluations across the strategy's rung schedule.
type ExploreResponse = JobResponse[explore.FrontierReport]

// exploreKind defines the exploration job kind.
func (s *Server) exploreKind() *jobKind[ExploreRequest, explore.Spec, explore.FrontierReport] {
	return &jobKind[ExploreRequest, explore.Spec, explore.FrontierReport]{
		s: s, path: "/v1/explore", noun: "exploration",
		keyOf: explore.KeyOf,
		load:  s.expLoader.LoadReport,
		start: func(spec explore.Spec) int { return len(spec.Cells()) * len(explore.RungSchedule(spec)) },
		total: func(rep *explore.FrontierReport) int { return len(rep.Spec.Cells()) * len(rep.Rungs) },
		run: func(spec explore.Spec, onProgress func(done, total int)) (*explore.FrontierReport, error) {
			ex := explore.New(s.exploreEvaluator(), s.cfg.Store)
			ex.OnProgress = onProgress
			rep, err := ex.Run(context.Background(), spec)
			ev, fs, _ := ex.Counters()
			s.exploreCellsEvaluated.Add(int64(ev))
			s.exploreCellsFromStore.Add(int64(fs))
			return rep, err
		},
		started: &s.exploresTotal, running: &s.exploresRunning, unitsDone: &s.exploreCellsDone,
	}
}

// exploreEvaluator picks where an exploration's simulations run: in
// process for a single-node daemon, through the cluster coordinator
// otherwise.
func (s *Server) exploreEvaluator() explore.Evaluator {
	if s.coord != nil {
		return &clusterEvaluator{s: s}
	}
	return explore.NewLocal(s.cfg.Runner, s.cfg.Store)
}

// clusterEvaluator routes an exploration's cell evaluations through
// the cluster coordinator: campaigns down the same submission path
// /v1/campaigns uses, fault-free runs as one-cell sweep jobs. Both
// persist through the shared store before returning, so the records an
// exploration reads are byte-identical no matter which worker computed
// them.
type clusterEvaluator struct{ s *Server }

func (ce *clusterEvaluator) Campaign(_ context.Context, spec campaign.Spec) (*campaign.Report, error) {
	return ce.s.clusterCampaign(spec, func(done, total int) {})
}

func (ce *clusterEvaluator) Run(ctx context.Context, spec harness.Spec) (harness.Result, error) {
	if rec, ok, _ := ce.s.cfg.Store.GetSpec(spec); ok {
		return rec.Result(), nil
	}
	if err := ce.s.clusterSweep(ctx, []harness.Spec{spec}); err != nil {
		return harness.Result{}, err
	}
	rec, ok, err := ce.s.cfg.Store.GetSpec(spec)
	if err != nil {
		return harness.Result{}, err
	}
	if !ok {
		return harness.Result{}, fmt.Errorf("service: explore cell %s completed but stored no record", store.KeyOf(spec))
	}
	return rec.Result(), nil
}
