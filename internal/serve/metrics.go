package serve

import (
	"context"
	"errors"
	"runtime"
	"time"

	"tensat"
	"tensat/internal/obs"
)

// metrics is the service's only counter store: one instrument per
// fact, registered on the obs.Registry that Service.Metrics exposes
// and NewHandler serves as GET /metrics. Call sites bump the
// instrument directly; Service.Stats (GET /v1/stats) is a read of the
// same instruments, so the two surfaces cannot disagree.
type metrics struct {
	reg *obs.Registry

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheDedup  *obs.Counter

	requests  *obs.CounterVec // by ruleset, cost_model
	canceled  *obs.Counter
	completed *obs.Counter
	runErrors *obs.Counter
	inFlight  *obs.Gauge

	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsCanceled  *obs.Counter
	jobsFailed    *obs.Counter
	jobsRunning   *obs.Gauge

	phaseSeconds *obs.HistogramVec // by phase
	runSeconds   *obs.Histogram

	enodes   *obs.Gauge
	eclasses *obs.Gauge

	searchScanned *obs.Counter
	searchPruned  *obs.Counter
	searchDirty   *obs.Counter
	searchClean   *obs.Counter
	searchMatches *obs.Counter

	ilpPresolveFixed   *obs.Counter
	ilpPresolveDropped *obs.Counter
	ilpPresolveRemoved *obs.Counter
	ilpIncumbents      *obs.Counter
	ilpSolves          *obs.CounterVec // by solver, outcome

	store tierMetrics
	peer  tierMetrics

	peerRetries     *obs.Counter
	peerPushDropped *obs.Counter
	peerBreaker     *obs.GaugeVec   // by peer
	panics          *obs.CounterVec // by site

	shed           *obs.Counter
	tenantRequests *obs.CounterVec // by tenant
	tenantRejected *obs.CounterVec // by tenant
}

// tierMetrics are the four instruments of one byte-level cache tier
// (tensat_<tier>_{hits,misses,errors,puts}_total).
type tierMetrics struct {
	hits, misses, errors, puts *obs.Counter
}

func newMetrics(s *Service) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg: r,

		cacheHits:   r.Counter("tensat_cache_hits_total", "Requests answered from the result cache."),
		cacheMisses: r.Counter("tensat_cache_misses_total", "Requests that had to consult the flight group."),
		cacheDedup:  r.Counter("tensat_cache_dedup_total", "Requests that joined an in-flight identical run."),

		requests:  r.CounterVec("tensat_requests_total", "Requests by resolved optimization profile.", "ruleset", "cost_model"),
		canceled:  r.Counter("tensat_requests_canceled_total", "Requests abandoned by their callers."),
		completed: r.Counter("tensat_runs_completed_total", "Cold optimization runs that finished successfully."),
		runErrors: r.Counter("tensat_run_errors_total", "Cold optimization runs that failed."),
		inFlight:  r.Gauge("tensat_optimizations_inflight", "Optimizations currently holding a worker slot."),

		jobsSubmitted: r.Counter("tensat_jobs_submitted_total", "Asynchronous jobs accepted by POST /v1/jobs."),
		jobsDone:      r.Counter("tensat_jobs_done_total", "Asynchronous jobs finished successfully."),
		jobsCanceled:  r.Counter("tensat_jobs_canceled_total", "Asynchronous jobs canceled or timed out."),
		jobsFailed:    r.Counter("tensat_jobs_failed_total", "Asynchronous jobs that failed."),
		jobsRunning:   r.Gauge("tensat_jobs_running", "Asynchronous jobs currently running."),

		phaseSeconds: r.HistogramVec("tensat_phase_seconds",
			"Pipeline phase latency by phase (explore, search, apply, rebuild, extract_greedy, extract_ilp).",
			obs.LatencyBuckets, "phase"),
		runSeconds: r.Histogram("tensat_run_seconds", "End-to-end cold optimization latency.", obs.LatencyBuckets),

		enodes:   r.Gauge("tensat_egraph_enodes", "Final e-node count of the most recently completed run."),
		eclasses: r.Gauge("tensat_egraph_eclasses", "Final e-class count of the most recently completed run."),

		searchScanned: r.Counter("tensat_search_classes_scanned_total", "E-classes visited by the e-matching pattern programs."),
		searchPruned:  r.Counter("tensat_search_classes_pruned_total", "E-classes skipped by the operator index."),
		searchDirty:   r.Counter("tensat_search_dirty_researched_total", "Dirty candidate classes re-searched incrementally."),
		searchClean:   r.Counter("tensat_search_clean_reused_total", "Clean candidate classes answered from the match memo."),
		searchMatches: r.Counter("tensat_search_matches_total", "Matches produced by the e-matching search phase."),

		ilpPresolveFixed:   r.Counter("tensat_ilp_presolve_fixed_total", "ILP variables fixed into the solution by presolve."),
		ilpPresolveDropped: r.Counter("tensat_ilp_presolve_dropped_total", "ILP candidate nodes eliminated by presolve."),
		ilpPresolveRemoved: r.Counter("tensat_ilp_presolve_constraints_removed_total", "Vacuous ILP cycle-constraint rows dropped by presolve."),
		ilpIncumbents:      r.Counter("tensat_ilp_incumbents_total", "ILP incumbent improvements across completed solves."),
		ilpSolves:          r.CounterVec("tensat_ilp_solves_total", "Completed ILP solves by backend and outcome (optimal vs. feasible).", "solver", "outcome"),

		store: tierMetrics{
			hits:   r.Counter("tensat_store_hits_total", "LRU misses answered from the persistent result store."),
			misses: r.Counter("tensat_store_misses_total", "Persistent-store lookups that found no record."),
			errors: r.Counter("tensat_store_errors_total", "Persistent-store reads/writes that failed or found unreadable records."),
			puts:   r.Counter("tensat_store_puts_total", "Results written through to the persistent store."),
		},
		peer: tierMetrics{
			hits:   r.Counter("tensat_peer_hits_total", "Results served by the owning peer's cache."),
			misses: r.Counter("tensat_peer_misses_total", "Clean peer-cache misses (owner had no record)."),
			errors: r.Counter("tensat_peer_errors_total", "Peer requests that failed (timeout, transport, unreadable record) — always degraded to local compute."),
			puts:   r.Counter("tensat_peer_puts_total", "Cold results pushed to their owning peer."),
		},

		peerRetries:     r.Counter("tensat_peer_retries_total", "Peer fetch retry attempts (transient failures absorbed by backoff)."),
		peerPushDropped: r.Counter("tensat_peer_push_dropped_total", "Async peer pushes dropped because the bounded push queue was full."),
		peerBreaker:     r.GaugeVec("tensat_peer_breaker_state", "Per-peer circuit breaker state (0=closed, 1=open, 2=half-open).", "peer"),
		panics:          r.CounterVec("tensat_panics_total", "Recovered panics by site — each one answered internal_error instead of killing the daemon.", "site"),

		shed:           r.Counter("tensat_shed_total", "Requests degraded to greedy-only extraction under tenant quota pressure."),
		tenantRequests: r.CounterVec("tensat_tenant_requests_total", "Requests entering admission control, by tenant.", "tenant"),
		tenantRejected: r.CounterVec("tensat_tenant_rejected_total", "Requests rejected (429) by admission control, by tenant.", "tenant"),
	}
	r.GaugeFunc("tensat_cache_entries", "Current result-cache population.", func() float64 {
		return float64(s.cache.len())
	})
	r.GaugeFunc("tensat_cache_bytes", "Summed encoded size of the in-memory result cache.", func() float64 {
		return float64(s.cache.bytesUsed())
	})
	r.GaugeFunc("tensat_store_entries", "Live records in the persistent result store.", func() float64 {
		if s.cfg.Store == nil {
			return 0
		}
		return float64(s.cfg.Store.Len())
	})
	r.GaugeFunc("tensat_store_bytes", "Live payload bytes in the persistent result store.", func() float64 {
		if s.cfg.Store == nil {
			return 0
		}
		return float64(s.cfg.Store.Bytes())
	})
	r.GaugeFunc("tensat_store_degraded", "1 while the persistent store is in degraded mode (I/O failures; memory tier keeps serving).", func() float64 {
		if s.storeDegraded() {
			return 1
		}
		return 0
	})
	r.GaugeFunc("tensat_draining", "1 while the daemon is draining for graceful shutdown.", func() float64 {
		if s.drain.active() {
			return 1
		}
		return 0
	})
	r.GaugeFunc("tensat_queue_waiting", "Optimization runs queued for a worker slot.", func() float64 {
		return float64(s.queue.waiting())
	})
	r.GaugeFunc("tensat_workers", "Configured worker-pool bound.", func() float64 {
		return float64(s.cfg.Workers)
	})

	// tensat_build_info follows the Prometheus convention for version
	// identification: constant 1 with the identity in the labels.
	info := r.CounterVec("tensat_build_info", "Build identity (constant 1).", "go_version", "revision")
	info.With(runtime.Version(), versionReply().Revision).Inc()
	return m
}

// endWork closes one worker-pool run: the slot gauge drops, and the
// outcome lands in exactly one of completed (+ the latency histogram),
// run errors, or neither.
func (m *metrics) endWork(d time.Duration, err error) {
	m.inFlight.Dec()
	switch {
	case err == nil:
		m.completed.Inc()
		m.runSeconds.Observe(d.Seconds())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// A run abandoned by its waiters (or out of request budget) is
		// client churn, not a server failure; the per-request canceled
		// counter already recorded each abandoning caller.
	default:
		m.runErrors.Inc()
	}
}

// observeRun folds one successful cold run into the search and ILP
// counters, the phase histograms and the e-graph gauges. The extractor
// phase label follows the effective option, so greedy and ILP latencies
// land in distinct series.
func (m *metrics) observeRun(res *tensat.Result, opts tensat.Options) {
	m.searchScanned.Add(uint64(res.Search.Scanned))
	m.searchPruned.Add(uint64(res.Search.Pruned))
	m.searchDirty.Add(uint64(res.Search.Dirty))
	m.searchClean.Add(uint64(res.Search.Clean))
	m.searchMatches.Add(uint64(res.Search.Matches))
	if st := res.ILP; st.Solver != "" {
		outcome := "feasible"
		if res.ILPOptimal {
			outcome = "optimal"
		}
		m.ilpPresolveFixed.Add(uint64(st.PresolveFixed))
		m.ilpPresolveDropped.Add(uint64(st.PresolveDropped))
		m.ilpPresolveRemoved.Add(uint64(st.PresolveRemoved))
		m.ilpIncumbents.Add(uint64(st.Incumbents))
		m.ilpSolves.With(st.Solver, outcome).Inc()
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	m.phaseSeconds.With("explore").Observe(sec(res.ExploreTime))
	m.phaseSeconds.With("search").Observe(sec(res.Search.Time))
	m.phaseSeconds.With("apply").Observe(sec(res.ApplyTime))
	m.phaseSeconds.With("rebuild").Observe(sec(res.RebuildTime))
	if opts.Extractor == tensat.ExtractGreedy {
		m.phaseSeconds.With("extract_greedy").Observe(sec(res.ExtractTime))
	} else {
		m.phaseSeconds.With("extract_ilp").Observe(sec(res.ExtractTime))
	}
	m.enodes.Set(float64(res.ENodes))
	m.eclasses.Set(float64(res.EClasses))
}
