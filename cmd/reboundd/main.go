// Command reboundd serves the Rebound experiment harness over HTTP:
// simulation-as-a-service. It accepts single-Spec runs and whole-figure
// sweeps, schedules them on the parallel in-process runner behind a
// bounded admission queue, and persists every result in a content-
// addressed on-disk store, so identical requests — including after a
// restart — are answered without re-simulating.
//
// Fault campaigns (/v1/campaigns) persist more than their results: the
// warmed machine snapshot every trial forks from is serialized into
// the store's "snapshots" namespace. A restarted daemon therefore
// cold-starts a resumed campaign with ONE store read — no build, no
// re-warm — and the restored trials are byte-identical to the warmed
// path (the snapshot record is self-verifying; a corrupt one is
// re-warmed and overwritten, never restored).
//
//	reboundd -scale quick                      # serve on :8091
//	reboundd -addr :9000 -store /var/lib/rebound -workers 8
//
//	curl -s localhost:8091/healthz
//	curl -s -X POST localhost:8091/v1/runs \
//	     -d '{"app":"FFT","procs":16,"scheme":"Rebound"}'
//	curl -s -X POST localhost:8091/v1/sweeps -d '{"figure":"fig6.2"}'
//	curl -s localhost:8091/v1/runs/<key>       # key from a previous answer
//	curl -s localhost:8091/metrics
//
// Distributed mode shards sweeps and campaigns across machines with
// the same public API:
//
//	reboundd -role coordinator -addr :8091 -store /shared/rebound
//	reboundd -role worker -join http://coord:8091 -addr :8092
//
// The coordinator partitions submitted work into TTL-leased index
// ranges; workers pull leases work-stealing style, warm (or load) the
// shared machine snapshot through the coordinator's store proxy, and
// push every trial/cell record back through it — so the records and
// the final report on the coordinator's disk are byte-identical to a
// single-node run. Every daemon runs sweeps, campaigns and
// explorations through the same coordinator and one in-process worker,
// so it makes progress with zero remote workers; -role single (the
// default) is a coordinator that mounts no cluster routes and so takes
// no remote workers.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// finish (bounded by -drain), new ones are refused. A worker drains by
// finishing its current leases and reporting them; anything it cannot
// report is re-issued by the coordinator at lease expiry and the
// already-pushed records are recognized, never re-run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8091", "listen address")
		storeDir   = flag.String("store", "reboundd-store", "result store directory")
		workers    = flag.Int("workers", 0, "runner worker-pool size (0 = GOMAXPROCS)")
		scaleName  = flag.String("scale", "full", "default experiment scale: quick|full")
		queueDepth = flag.Int("queue", 64, "max jobs waiting for a worker before 503")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		role       = flag.String("role", "single", "cluster role: single (no cluster routes, no remote workers) | coordinator (serves the routes remote workers join) | worker")
		join       = flag.String("join", "", "coordinator URL to join (role worker)")
		name       = flag.String("name", "", "worker label (role worker; default hostname)")
		leaseTTL   = flag.Duration("lease-ttl", 0, "cluster lease TTL (roles single and coordinator; 0 = 15s)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. 127.0.0.1:6060 (empty = off)")
	)
	flag.Parse()

	startPprof(*pprofAddr)

	switch *role {
	case "worker":
		os.Exit(runWorker(*addr, *join, *name, *workers, *drain))
	case "single", "coordinator":
	default:
		log.Fatalf("reboundd: unknown role %q (want single, coordinator or worker)", *role)
	}

	sc, err := harness.ScaleByName(*scaleName)
	if err != nil {
		log.Fatalf("reboundd: %v", err)
	}
	st, err := store.Open(*storeDir, 0)
	if err != nil {
		log.Fatalf("reboundd: %v", err)
	}
	runner := harness.NewRunner(*workers)
	svc, err := service.New(service.Config{
		Runner:     runner,
		Store:      st,
		Scale:      sc,
		QueueDepth: *queueDepth,
		Role:       *role,
		LeaseTTL:   *leaseTTL,
	})
	if err != nil {
		log.Fatalf("reboundd: %v", err)
	}
	defer svc.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("reboundd: serving on %s (role=%s scale=%s workers=%d store=%s, %d stored results)",
		*addr, *role, sc.Name, runner.Workers(), *storeDir, st.Len())

	select {
	case err := <-errc:
		log.Fatalf("reboundd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("reboundd: shutting down (drain %s)", *drain)
	// Finish the in-process worker's current leases before refusing
	// requests: pushed records persist, so nothing is lost either way.
	svc.DrainCluster()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("reboundd: forced shutdown: %v", err)
		srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("reboundd: %v", err)
	}
	fmt.Println("reboundd: bye")
}

// startPprof serves the net/http/pprof handlers on their own mux at
// addr (any role; no-op when addr is empty, the default). The explicit
// mux keeps the profiling endpoints off the public API listener — bind
// a loopback address unless the network is trusted — and avoids the
// DefaultServeMux side-effect registration of a blank import.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		log.Printf("reboundd: pprof on http://%s/debug/pprof/", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("reboundd: pprof server: %v", err)
		}
	}()
}

// runWorker runs the worker role: join the coordinator, pull leases
// until signalled, serve a minimal /healthz + /metrics for probes.
// SIGINT/SIGTERM drains gracefully — the current leases complete and
// report — and the drain timeout bounds how long that may take before
// a hard stop (whose pushed records the coordinator still recognizes).
func runWorker(addr, join, name string, workers int, drain time.Duration) int {
	if join == "" {
		log.Printf("reboundd: role worker requires -join <coordinator URL>")
		return 2
	}
	if name == "" {
		if host, err := os.Hostname(); err == nil {
			name = host
		} else {
			name = "worker"
		}
	}
	// Seed retries from the worker name so a fleet restarting together
	// spreads its backoff instead of thundering back in lockstep.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", name, os.Getpid())
	policy := retry.Policy{Attempts: 12, Jitter: 0.5, Seed: h.Sum64()}

	runner := harness.NewRunner(workers)
	tier := cluster.NewRemoteStore(join, nil, policy)
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Proto:  cluster.NewHTTPProtocol(join, nil, policy),
		Runner: runner,
		Tier:   tier,
		Name:   name,
		Logf:   log.Printf,
	})
	if err != nil {
		log.Printf("reboundd: %v", err)
		return 2
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"status": "ok", "role": "worker", "coordinator": %q, "worker_id": %q}`+"\n",
			join, w.ID())
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		trials, cells, leases := w.Stats()
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"role": "worker", "trials_done": %d, "cells_done": %d, `+
			`"leases_done": %d, "snapshot_reads": %d}`+"\n",
			trials, cells, leases, tier.SnapshotReads())
	})
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("reboundd: probe server: %v", err)
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sigCtx.Done()
		if runCtx.Err() != nil {
			return // worker already finished on its own
		}
		log.Printf("reboundd: draining (current leases finish, bounded by %s)", drain)
		w.Drain()
		select {
		case <-time.After(drain):
			cancel() // hard stop; the lease expires and is re-issued
		case <-runCtx.Done():
		}
	}()

	log.Printf("reboundd: worker %s joining %s (probes on %s)", name, join, addr)
	err = w.Run(runCtx)
	cancel()
	srv.Close()
	trials, cells, leases := w.Stats()
	log.Printf("reboundd: worker done: %d trials, %d cells, %d leases, %d snapshot reads",
		trials, cells, leases, tier.SnapshotReads())
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("reboundd: %v", err)
		return 1
	}
	return 0
}
