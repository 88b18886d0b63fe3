// Package repro is a from-scratch Go reproduction of "Rebound: Scalable
// Checkpointing for Coherent Shared Memory" (Agarwal, Garg, Torrellas;
// ISCA 2011 / UIUC MS thesis 2011).
//
// The repository contains a deterministic manycore simulator with
// directory-based MESI coherence (internal/machine and its substrates),
// the Rebound coordinated local checkpointing scheme and its Global
// (ReVive-style) baseline (internal/core), synthetic SPLASH-2 / PARSEC /
// Apache workload profiles (internal/workload), a fault injector with
// poison-propagation verification (internal/fault), and a harness that
// regenerates every figure and table of the paper's evaluation chapter
// (internal/harness, cmd/figures). The root-level benchmarks in
// bench_test.go map one-to-one onto the paper's figures and tables.
//
// Experiment execution is parallel by default: every (app, procs,
// scheme, scale) cell is an independent simulation, and the harness
// Runner fans cells out across a GOMAXPROCS worker pool with per-Spec
// memoization (harness.Run / harness.RunSerial / harness.RunOne), all
// context-aware so cancelled callers stop cells that have not started.
// Each cell's machine seed is derived purely from its Spec's workload
// identity (harness.DeriveSeed) — never from scheduling order — so
// parallel and serial execution are byte-identical; the determinism
// suite in internal/harness proves this by comparing stats.Snapshot
// serializations across execution modes.
//
// The machine itself is checkpointable — the paper's idea applied to
// the simulator. machine.Snapshot captures a quiescent machine's
// complete mutable state (the event queue is saved as data: pending
// step/drain events carry sim.Tags and are re-bound to their closures
// on restore) and machine.Restore rewinds a live machine to it in
// place, without reallocating. There is one way to start a
// simulation: harness.Build constructs a fresh machine for a Spec (the
// harness Runner builds every cell this way), and the campaign engine
// warms one machine, snapshots it, and forks and restores that warm
// state per trial instead of re-warming. Equivalence is load-bearing
// and proven: restored, forked and freshly-built machines produce
// byte-identical statistics (the internal/harness snapshot suite and
// the internal/campaign executor-equivalence suites).
//
// On top of the runner sit the service layers of cmd/reboundd,
// simulation-as-a-service: internal/store is a content-addressed
// on-disk result store (one self-verifying JSON record per Spec,
// addressed by sha256 of the canonical Spec key, fronted by an
// in-memory LRU holding both decoded records and their raw bytes)
// that serves identical requests across process restarts without
// re-simulating; internal/service is the HTTP API — POST /v1/runs,
// POST /v1/sweeps (named figures or explicit spec lists),
// GET /v1/runs/{key} (the stored record bytes served zero-copy, with
// the content address as a permanent ETag), /healthz, /metrics — with
// shared Spec.Validate request validation, every simulation run as a
// cluster coordinator job (an identical request in flight joins it),
// a bounded admission queue, and graceful shutdown.
//
// The reliability layer is internal/campaign, the Monte Carlo
// fault-campaign engine: it runs thousands of deterministic
// fault-injected trials of one experiment cell (fault placement derived
// from (campaign key, trial index) by campaign.TrialSeed, the fault
// analogue of DeriveSeed) across the runner's worker pool, verifies the
// paper's recovery guarantee on every trial through the fault
// injector's poison verifier, and aggregates MTTR, availability,
// rolled-back work and recovery interaction-set sizes into a
// campaign.Report with confidence intervals — byte-identical across
// both trial executors (build-and-warm reference vs the machine
// snapshot engine, which amortizes the shared warmup across all
// trials) and across serial, parallel and interrupt-then-resume
// executions. Per-trial
// records and reports persist content-addressed through internal/store,
// so campaigns resume instead of restarting; cmd/campaign is the CLI
// and POST/GET /v1/campaigns the asynchronous service surface, with
// progress in /metrics.
//
// Above the service sits the distribution layer, internal/cluster:
// a coordinator/worker cluster that shards sweeps and campaigns across
// machines behind the same public API. The coordinator (reboundd
// -role coordinator) partitions submitted jobs into TTL-leased unit
// ranges; workers (reboundd -role worker -join URL) pull leases
// work-stealing style, warm or load the campaign's shared machine
// snapshot through the coordinator's store proxy (one read on cold
// start), execute on the local runner pool, and push every record back
// through the same content-addressed write path the local engine uses
// — so the stored trials, cells and assembled reports are
// byte-identical no matter which node computed them, and a worker
// killed mid-lease costs only the re-issue of its unpushed units (the
// pushed ones are recognized in the store at lease expiry, never
// re-run). Every reboundd runs sweeps, campaigns and explorations
// through the coordinator and one in-process worker, so a cluster of
// one node (the default -role single, which mounts no cluster routes)
// completes every job; internal/retry supplies the capped,
// deterministically-jittered backoff that all cluster transport rides
// on, and cmd/campaign -server submits and polls a campaign against
// either deployment shape.
//
// Closing the loop over all of these is the optimizer layer,
// internal/explore: a frontier search over the scheme space itself.
// An explore.Spec crosses checkpointing schemes (including the
// two-level Rebound_2L hierarchy) with checkpoint intervals and
// machine knobs into a grid of cells, evaluates each cell through the
// campaign engine (availability under fault injection) plus a
// fault-free run (runtime overhead), and reports the Pareto frontier
// of the availability/overhead tradeoff as an explore.FrontierReport.
// The default strategy is successive halving: a cheap seeding rung
// prunes cells another cell beats decisively — overhead is exact at
// any trial count while availability carries Monte Carlo noise, so
// the prune rule demands a decisive margin on one axis without losing
// ground beyond the noise band on the other — and only survivors get
// the full budget, with the spend ledgered against the exhaustive
// grid cost in the report. Every cell evaluation persists in a shared
// content-addressed namespace keyed by its campaign, so explorations
// resume with zero re-evaluation and overlapping spaces share their
// intersection; reports are byte-identical for identical Specs across
// serial, parallel, restarted and clustered execution. cmd/explore is
// the CLI and POST/GET /v1/explore the asynchronous service surface,
// admitted alongside campaigns and routed through the cluster when
// reboundd runs as a coordinator.
//
// See README.md for a quickstart, the runner API — including the
// seed-derivation rule and how to reproduce figures in parallel versus
// serial — and curl examples for the service and campaign endpoints.
package repro
