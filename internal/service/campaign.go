package service

// The fault-campaign job kind: POST /v1/campaigns and GET
// /v1/campaigns/{key}, with the lifecycle every background job shares
// (jobs.go). A campaign's units are its trials. Per-trial records and
// the report persist through the same content-addressed store as run
// records, so a daemon killed mid-campaign resumes from its completed
// trials. Progress is also visible in /metrics (campaigns_running,
// campaign_trials_done).

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/harness"
)

// CampaignRequest is the JSON body of POST /v1/campaigns: a base cell
// (the fields of a run request) plus the fault grid.
type CampaignRequest struct {
	RunRequest
	Trials int `json:"trials"`
	// Faults per trial; 0 selects 1.
	Faults        int    `json:"faults,omitempty"`
	Window        uint64 `json:"window,omitempty"`
	DetectLatency uint64 `json:"detect_latency,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

// Spec resolves the request against the server's default scale and
// validates it.
func (cr CampaignRequest) Spec(def harness.Scale) (campaign.Spec, error) {
	base, err := cr.RunRequest.Spec(def)
	if err != nil {
		return campaign.Spec{}, err
	}
	cs := campaign.Spec{Base: base, Trials: cr.Trials, Faults: cr.Faults,
		Window: cr.Window, DetectLatency: cr.DetectLatency, Seed: cr.Seed}
	if cs.Faults == 0 {
		cs.Faults = 1
	}
	return cs, cs.Validate()
}

// CampaignResponse answers both campaign endpoints. Done/Total count
// trials.
type CampaignResponse = JobResponse[campaign.Report]

// campaignKind defines the campaign job kind.
func (s *Server) campaignKind() *jobKind[CampaignRequest, campaign.Spec, campaign.Report] {
	return &jobKind[CampaignRequest, campaign.Spec, campaign.Report]{
		s: s, path: "/v1/campaigns", noun: "campaign",
		keyOf: campaign.KeyOf,
		load:  s.loader.LoadReport,
		start: func(spec campaign.Spec) int { return spec.Trials },
		total: func(rep *campaign.Report) int { return rep.Trials },
		run: func(spec campaign.Spec, onProgress func(done, total int)) (*campaign.Report, error) {
			if s.coord != nil {
				// Coordinator role: the cluster shards the trials across
				// the in-process worker and any remote workers; the report
				// the coordinator assembles from their records is
				// byte-identical to a local run's.
				return s.clusterCampaign(spec, onProgress)
			}
			eng := campaign.New(s.cfg.Runner, s.cfg.Store)
			eng.OnProgress = onProgress
			return eng.Run(context.Background(), spec)
		},
		started: &s.campaignsTotal, running: &s.campaignsRunning, unitsDone: &s.campaignTrialsDone,
	}
}
