// Command tensatd serves TENSAT graph optimization over HTTP+JSON.
//
// The versioned surface is asynchronous — optimizations are jobs that
// are submitted, observed, and harvested:
//
//	POST   /v1/jobs             — submit a graph; answers 202 + job id
//	GET    /v1/jobs             — list tracked jobs (status, age, profile)
//	GET    /v1/jobs/{id}        — status + live progress snapshot
//	GET    /v1/jobs/{id}/result — the optimized graph once done
//	DELETE /v1/jobs/{id}        — cancel a running job
//	GET    /v1/jobs/{id}/events — progress as server-sent events
//	GET    /v1/jobs/{id}/trace  — per-phase trace (add ?format=chrome for Perfetto)
//	GET    /v1/rulesets         — named rule sets with content hashes
//	GET    /v1/costmodels       — named device cost models with hashes
//	GET    /v1/version          — build/runtime identification
//	GET    /v1/stats            — the /metrics registry as JSON, plus latency quantiles
//	GET    /v1/healthz          — liveness probe
//	GET    /v1/readyz           — readiness probe (503 while draining)
//	GET    /metrics             — Prometheus text exposition
//	GET/PUT /v1/peer/cache/{key} — internal node-to-node cache surface
//
// Fleet operation: -store-dir persists results on disk so a restarted
// node keeps its warm set; -peers/-self form a static fleet that
// routes each cache key to one owning node via consistent hashing,
// with node-to-node requests authenticated by the shared secret in
// -cluster-secret-file; -tenants enables API-key auth with per-tenant rate limits,
// concurrency quotas and priorities — over-quota low-priority
// requests degrade to greedy-only extraction before ever being
// rejected. See the README's "Operating a tensatd fleet" section.
//
// Resilience: each peer sits behind a circuit breaker
// (-peer-breaker-failures / -peer-breaker-cooldown) with jittered
// retry for idempotent fetches (-peer-retries); the disk store sits
// behind the same breaker (first I/O error opens it, memory keeps serving);
// SIGTERM drains gracefully — /readyz turns 503, running jobs finish
// under -drain-timeout. -fault-spec arms deterministic fault
// injection for chaos testing (development only, never production).
// See the README's "Failure modes and the degradation ladder" section.
//
// Quick start:
//
//	tensatd -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{
//	  "graph": "(output (matmul 0 (input \"x@64 256\") (weight \"w1@256 256\")))\n(output (matmul 0 (input \"x@64 256\") (weight \"w2@256 256\")))",
//	  "options": {"extractor": "ilp", "ruleset": "taso-default", "cost_model": "a100"}
//	}'
//	curl -s localhost:8080/v1/jobs/<id>          # poll progress
//	curl -s localhost:8080/v1/jobs/<id>/result   # fetch the answer
//
// Structurally identical graphs — whatever their input names or node
// order — share one cache entry and one in-flight run per profile;
// repeat a finished request to see "cached": true.
//
// Optimization profiles: -rules-dir loads every *.rules file in a
// directory as a named rule set (see the README for the line format)
// and -device-dir loads every *.json device spec as a named cost
// model; requests select them per job via the "ruleset"/"cost_model"
// options. A malformed or shape-unsound file refuses to boot the
// daemon — better a loud start-up failure than a silently missing
// profile — and every loaded file passes through the static rule
// verifier (internal/rulecheck): warnings are logged (-strict-rules
// turns them into startup failures), and -vet-only runs only the
// verifier and exits, for deploy-pipeline gating.
//
// Observability: the daemon logs structured records via log/slog
// (-log-format json for machine ingestion), exposes Prometheus metrics
// on GET /metrics, and — when -debug-addr is set — serves net/http/pprof
// on a separate listener (keep it on loopback or a private interface;
// profiles expose internals).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/fault"
	"tensat/internal/ilp/backend"
	"tensat/internal/rulecheck"
	"tensat/internal/serve"
	"tensat/internal/tenant"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "max concurrent optimizations (0 = GOMAXPROCS)")
		searchWorkers = flag.Int("search-workers", 0, "default \"workers\" request option; deprecated, no effect on a run: exploration searches on one goroutine")
		cacheSize     = flag.Int("cache", 256, "result cache capacity (entries)")
		maxJobs       = flag.Int("max-jobs", 1024, "async job store capacity; submissions beyond it answer 429 once every held job is unfinished")
		jobTTL        = flag.Duration("job-ttl", 15*time.Minute, "how long a finished job's result and progress log stay queryable")
		nodeLimit     = flag.Int("nodelimit", 20000, "default e-graph node limit (N_max)")
		iters         = flag.Int("iters", 15, "default exploration iteration limit (k_max)")
		kmulti        = flag.Int("kmulti", 1, "default multi-pattern iterations (k_multi)")
		ilpTime       = flag.Duration("ilptimeout", 2*time.Minute, "default ILP solver timeout")
		ilpSolver     = flag.String("ilp-solver", "", "default ILP backend: builtin (parallel branch-and-bound), builtin-seq, cbc or highs (external binaries on PATH); requests override per-job with ilp_solver")
		rulesDir      = flag.String("rules-dir", "", "load every *.rules file in this directory as a named rule set profile")
		deviceDir     = flag.String("device-dir", "", "load every *.json device spec in this directory as a named cost model profile")
		strictRules   = flag.Bool("strict-rules", false, "fail startup on any static rule-verifier finding in -rules-dir, warnings included (shape-unsound rules always fail)")
		vetOnly       = flag.Bool("vet-only", false, "vet -rules-dir with the static rule verifier and exit without serving (exit 1 on error findings, or any finding with -strict-rules)")
		cacheBytes    = flag.Int64("cache-max-bytes", 0, "result cache byte bound (encoded size; 0 = unbounded, entry-count bound still applies)")
		storeDir      = flag.String("store-dir", "", "persist optimization results to this directory so restarts keep their warm set (empty = memory only)")
		peers         = flag.String("peers", "", "comma-separated host:port fleet membership for the peer cache tier (requires -self)")
		self          = flag.String("self", "", "this node's own name in -peers (its advertised host:port)")
		peerTimeout   = flag.Duration("peer-timeout", cluster.DefaultTimeout, "per-request peer cache timeout; a slower peer is treated as a miss")
		peerSecret    = flag.String("cluster-secret-file", "", "file holding the fleet's shared peer-auth secret (>= 16 bytes after trimming whitespace); required with -peers, must match on every node")
		breakerFails  = flag.Int("peer-breaker-failures", 0, "consecutive failures that trip a peer's circuit breaker (0 = default "+strconv.Itoa(cluster.DefaultBreakerThreshold)+")")
		breakerCool   = flag.Duration("peer-breaker-cooldown", 0, "how long a tripped breaker shuns its peer before a half-open probe (0 = default "+cluster.DefaultBreakerCooldown.String()+")")
		peerRetries   = flag.Int("peer-retries", 0, "retry attempts for idempotent peer fetches, with jittered exponential backoff (negative = disabled, 0 = default "+strconv.Itoa(cluster.DefaultRetryAttempts)+")")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM/SIGINT shutdown waits for running jobs to finish before abandoning them")
		faultSpec     = flag.String("fault-spec", "", "arm deterministic fault injection, e.g. 'store.put:enospc,peer.fetch:error:3' (development/chaos testing only — never set in production)")
		tenantsFile   = flag.String("tenants", "", "JSON tenant registry (API keys, rate limits, concurrency quotas, priorities); empty = no auth, no quotas")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled; bind to loopback)")
		keepAlive     = flag.Duration("sse-keepalive", 15*time.Second, "idle SSE keepalive comment interval (negative = disabled)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log-format (want text or json)", "got", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Worker counts must be non-negative: silently coercing a negative
	// value to "GOMAXPROCS" (or to sequential search) hides an operator
	// mistake.
	if *workers < 0 {
		fatal("-workers must be >= 0", "got", *workers)
	}
	if *searchWorkers < 0 {
		fatal("-search-workers must be >= 0", "got", *searchWorkers)
	}
	if !backend.Valid(*ilpSolver) {
		fatal("-ilp-solver unknown", "got", *ilpSolver, "known", strings.Join(backend.Names(), ", "))
	}
	if *drainTimeout < 0 {
		fatal("-drain-timeout must be >= 0", "got", *drainTimeout)
	}

	// Fault injection arms before anything that could consult a point.
	// The spec is for chaos drills and development; a daemon with armed
	// faults deliberately misbehaves, so make the state unmissable.
	if *faultSpec != "" {
		if err := fault.ParseSpec(*faultSpec); err != nil {
			fatal("parsing -fault-spec", "error", err)
		}
		logger.Warn("FAULT INJECTION ARMED — this daemon will deliberately misbehave; never use -fault-spec in production",
			"spec", *faultSpec)
	}

	// -vet-only turns the daemon into a config checker: run the static
	// rule verifier over -rules-dir and exit without binding a socket,
	// so deploy pipelines can gate on profile health.
	if *vetOnly {
		if *rulesDir == "" {
			fatal("-vet-only requires -rules-dir")
		}
		model, _ := tensat.DefaultRegistry().CostModel(tensat.DefaultCostModelName)
		findings, err := rulecheck.CheckDir(*rulesDir, model)
		if err != nil {
			fatal("vetting rule sets", "error", err)
		}
		for _, f := range findings {
			logger.Warn("rule vet finding", "source", f.Source, "rule", f.Rule,
				"class", f.Class, "severity", f.Severity, "detail", f.Detail)
		}
		if rulecheck.HasErrors(findings) || (*strictRules && len(findings) > 0) {
			os.Exit(1)
		}
		logger.Info("rule sets vetted", "dir", *rulesDir, "findings", len(findings))
		return
	}

	registry := tensat.DefaultRegistry()
	if *strictRules {
		registry.SetRuleVetMode(tensat.RuleVetStrict)
	}
	if *rulesDir != "" {
		infos, err := registry.LoadRulesDir(*rulesDir)
		if err != nil {
			fatal("loading rule sets", "error", err)
		}
		for _, info := range infos {
			logger.Info("ruleset loaded",
				"name", info.Name, "rules", info.Rules, "multi_rules", info.MultiRules,
				"hash", info.Hash[:12], "source", info.Source)
			for _, w := range info.VetWarnings {
				logger.Warn("rule vet warning", "ruleset", info.Name, "finding", w)
			}
		}
	}
	if *deviceDir != "" {
		infos, err := registry.LoadDevicesDir(*deviceDir)
		if err != nil {
			fatal("loading device specs", "error", err)
		}
		for _, info := range infos {
			logger.Info("costmodel loaded",
				"name", info.Name, "params", info.Params,
				"hash", info.Hash[:12], "source", info.Source)
		}
	}

	base := tensat.DefaultOptions()
	base.NodeLimit = *nodeLimit
	base.IterLimit = *iters
	base.KMulti = *kmulti
	base.ILPTimeout = *ilpTime
	base.Workers = *searchWorkers
	base.ILPSolver = *ilpSolver

	// The persistent store opens before the listener binds: an unusable
	// -store-dir is a loud startup failure, not a silent memory-only
	// daemon.
	var store cachestore.Store
	if *storeDir != "" {
		st, err := cachestore.Open(*storeDir)
		if err != nil {
			fatal("opening result store", "dir", *storeDir, "error", err)
		}
		defer st.Close()
		store = st
		logger.Info("result store opened", "dir", *storeDir, "entries", st.Len(), "bytes", st.Bytes())
	}

	var peerClient *cluster.Client
	if *peers != "" {
		if *self == "" {
			fatal("-peers requires -self (this node's own name in the list)")
		}
		if *peerSecret == "" {
			fatal("-peers requires -cluster-secret-file; the peer surface shares the client listener and must authenticate node-to-node traffic")
		}
		raw, err := os.ReadFile(*peerSecret)
		if err != nil {
			fatal("reading cluster secret", "file", *peerSecret, "error", err)
		}
		secret := strings.TrimSpace(string(raw))
		var fleet []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				fleet = append(fleet, p)
			}
		}
		cl, err := cluster.New(cluster.Config{
			Self:             *self,
			Peers:            fleet,
			Timeout:          *peerTimeout,
			Secret:           secret,
			BreakerThreshold: *breakerFails,
			BreakerCooldown:  *breakerCool,
			RetryAttempts:    *peerRetries,
		})
		if err != nil {
			fatal("configuring peer cache tier", "error", err)
		}
		defer cl.Close()
		peerClient = cl
		logger.Info("peer cache tier configured", "self", *self, "fleet", cl.Nodes())
	} else if *self != "" {
		fatal("-self without -peers; both are needed for a peer cache tier")
	}

	var tenants *tenant.Registry
	if *tenantsFile != "" {
		reg, err := tenant.Load(*tenantsFile)
		if err != nil {
			fatal("loading tenant registry", "file", *tenantsFile, "error", err)
		}
		tenants = reg
		logger.Info("tenant registry loaded", "file", *tenantsFile, "tenants", reg.Names())
	}

	svc := serve.New(serve.Config{
		Workers:       *workers,
		CacheSize:     *cacheSize,
		CacheMaxBytes: *cacheBytes,
		MaxJobs:       *maxJobs,
		JobTTL:        *jobTTL,
		Base:          base,
		Registry:      registry,
		Logger:        logger,
		SSEKeepAlive:  *keepAlive,
		Store:         store,
		Cluster:       peerClient,
		Tenants:       tenants,
	})

	server := &http.Server{
		Addr:    *addr,
		Handler: serve.AccessLog(logger, serve.NewHandler(svc)),
		// Optimizations can legitimately run for minutes; only bound
		// header reads so stuck clients cannot pin connections.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof mux lives on its own opt-in listener rather than the
	// service mux: profiles and symbol tables are internals no public
	// surface should leak, and a separate port is easy to firewall.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugServer := &http.Server{Addr: *debugAddr, Handler: debugMux,
			ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "error", err)
			}
		}()
		defer debugServer.Close()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", svc.Workers(), "cache", *cacheSize)
		errc <- server.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fatal("serve", "error", err)
	case <-ctx.Done():
	}
	// Graceful drain: flip /readyz to 503 so load balancers stop routing
	// here, refuse new work with 503 + Retry-After, and give running
	// jobs up to -drain-timeout to finish before closing the listener.
	logger.Info("shutting down — draining", "timeout", *drainTimeout)
	svc.BeginDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	if err := svc.Drain(drainCtx); err != nil {
		logger.Warn("drain timeout expired — abandoning unfinished jobs", "error", err)
	} else {
		logger.Info("drained: all running jobs finished")
	}
	cancelDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal("shutdown", "error", err)
	}
}
