package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/tenant"
	"tensat/internal/tensor"
)

// OptimizeRequest is the body of POST /optimize and POST /v1/jobs: the
// graph in the textual wire format of tensor.Graph.MarshalText, the
// optimization knobs — including the "ruleset"/"cost_model" profile
// selectors — and an optional deadline. Unknown fields are rejected,
// so a typo like "worker": 4 errors instead of silently running with
// defaults.
type OptimizeRequest struct {
	// Graph is the graph in the S-expression wire format, e.g.
	// "(output (matmul 0 (input \"x@64 256\") (weight \"w@256 256\")))".
	Graph string `json:"graph"`
	// Options refine the server's base configuration.
	Options RequestOptions `json:"options"`
	// TimeoutMS bounds the work. On /optimize it bounds the whole
	// request (queueing + optimization); on /v1/jobs it bounds the job
	// itself, which otherwise runs until done or canceled.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// OptimizeReply is the body answering POST /optimize and
// GET /v1/jobs/{id}/result.
type OptimizeReply struct {
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	Deduped     bool   `json:"deduped"`
	// CacheTier names where a cached answer came from ("memory",
	// "disk", "peer"); empty for cold runs.
	CacheTier string `json:"cache_tier,omitempty"`
	// Degraded marks a load-shed answer: the tenant was over quota and
	// the run used greedy-only extraction instead of ILP. Degraded
	// answers are never cached as the request's optimal.
	Degraded       bool    `json:"degraded,omitempty"`
	Graph          string  `json:"graph"`
	OrigCost       float64 `json:"orig_cost"`
	OptCost        float64 `json:"opt_cost"`
	SpeedupPercent float64 `json:"speedup_percent"`
	ExploreMS      float64 `json:"explore_ms"`
	ExtractMS      float64 `json:"extract_ms"`
	ENodes         int     `json:"enodes"`
	EClasses       int     `json:"eclasses"`
	Iterations     int     `json:"iterations"`
	Saturated      bool    `json:"saturated"`
	// Truncated reports that exploration stopped on a time budget or
	// cancellation, so the result covers only part of the search space.
	Truncated  bool `json:"truncated"`
	ILPOptimal bool `json:"ilp_optimal"`
}

// ProgressReply is one progress snapshot on the wire.
type ProgressReply struct {
	Phase     string  `json:"phase"`
	Iteration int     `json:"iteration"`
	ENodes    int     `json:"enodes"`
	EClasses  int     `json:"eclasses"`
	BestCost  float64 `json:"best_cost,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func toProgressReply(p tensat.Progress) ProgressReply {
	return ProgressReply{
		Phase:     string(p.Phase),
		Iteration: p.Iteration,
		ENodes:    p.ENodes,
		EClasses:  p.EClasses,
		BestCost:  p.BestCost,
		ElapsedMS: float64(p.Elapsed) / float64(time.Millisecond),
	}
}

// JobReply describes a job's lifecycle state: the body of the 202
// answering POST /v1/jobs, of GET /v1/jobs/{id}, of DELETE
// /v1/jobs/{id}, and of the final SSE "done" event.
type JobReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// RuleSet and CostModel are the job's resolved optimization
	// profile ("custom" when the service runs a programmatic override).
	RuleSet   string `json:"ruleset"`
	CostModel string `json:"cost_model"`
	// Progress is the latest snapshot (phase, iteration, e-graph
	// sizes, incumbent cost, elapsed time).
	Progress ProgressReply `json:"progress"`
	// Error carries the failure or cancellation cause once terminal.
	Error string `json:"error,omitempty"`
	// StatusURL/ResultURL/EventsURL locate the job's sub-resources.
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
	EventsURL string `json:"events_url"`
}

func toJobReply(j *Job) JobReply {
	status, prog := j.Status()
	rs, cm := j.Profile()
	r := JobReply{
		ID:        j.ID(),
		Status:    string(status),
		RuleSet:   rs,
		CostModel: cm,
		Progress:  toProgressReply(prog),
		StatusURL: "/v1/jobs/" + j.ID(),
		ResultURL: "/v1/jobs/" + j.ID() + "/result",
		EventsURL: "/v1/jobs/" + j.ID() + "/events",
	}
	if _, err := j.Outcome(); err != nil {
		r.Error = err.Error()
	}
	return r
}

// JobSummaryReply is one row of the GET /v1/jobs listing: enough to
// see what the store holds (and watch TTL expiry/eviction happen)
// without the full progress payload.
type JobSummaryReply struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"`
	AgeMS     float64 `json:"age_ms"`
	RuleSet   string  `json:"ruleset"`
	CostModel string  `json:"cost_model"`
	StatusURL string  `json:"status_url"`
}

// JobListReply is the body answering GET /v1/jobs.
type JobListReply struct {
	Jobs  []JobSummaryReply `json:"jobs"`
	Count int               `json:"count"`
}

// RuleSetReply and CostModelReply are the discovery rows of
// GET /v1/rulesets and GET /v1/costmodels.
type RuleSetReply struct {
	Name string `json:"name"`
	// Hash is the content hash of the rule set (names + canonical
	// pattern s-expressions) — stable across restarts and reloads
	// while the rules are unchanged, and the component that keys the
	// result cache per profile.
	Hash       string `json:"hash"`
	Rules      int    `json:"rules"`
	MultiRules int    `json:"multi_rules"`
	Source     string `json:"source"`
}

type CostModelReply struct {
	Name   string `json:"name"`
	Hash   string `json:"hash"`
	Params int    `json:"params"`
	Source string `json:"source"`
}

// RuleSetsReply is the body answering GET /v1/rulesets.
type RuleSetsReply struct {
	RuleSets []RuleSetReply `json:"rulesets"`
	Count    int            `json:"count"`
}

// CostModelsReply is the body answering GET /v1/costmodels.
type CostModelsReply struct {
	CostModels []CostModelReply `json:"costmodels"`
	Count      int              `json:"count"`
}

// StatsReply is the body answering GET /v1/stats.
type StatsReply struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Deduped      uint64 `json:"deduped"`
	Completed    uint64 `json:"completed"`
	Errors       uint64 `json:"errors"`
	Canceled     uint64 `json:"canceled"`
	InFlight     int    `json:"in_flight"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   int64  `json:"cache_bytes"`
	QueueWaiting int    `json:"queue_waiting"`
	Workers      int    `json:"workers"`
	// P50MS/P95MS/P99MS are bucket-interpolated quantiles of the
	// tensat_run_seconds histogram (cold-run latency).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// Asynchronous job counters (the /v1/jobs surface).
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsRunning   int    `json:"jobs_running"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsFailed    uint64 `json:"jobs_failed"`
	// Profiles counts requests per "<ruleset>/<costmodel>" profile.
	Profiles map[string]uint64 `json:"profiles,omitempty"`
	// Search-phase counters summed over completed (uncached) runs:
	// classes the e-matching programs scanned vs. skipped by the
	// operator index, dirty candidates re-searched vs. clean candidates
	// answered from the per-iteration memo, and matches found.
	SearchClassesScanned uint64 `json:"search_classes_scanned"`
	SearchClassesPruned  uint64 `json:"search_classes_pruned"`
	SearchDirtySearched  uint64 `json:"search_dirty_searched"`
	SearchCleanReused    uint64 `json:"search_clean_reused"`
	SearchMatches        uint64 `json:"search_matches"`
	// ILP-extraction counters summed over the same runs: what presolve
	// removed before solving, incumbent improvements, and completed
	// solves keyed "<backend>/optimal" or "<backend>/feasible".
	ILPPresolveFixed   uint64            `json:"ilp_presolve_fixed"`
	ILPPresolveDropped uint64            `json:"ilp_presolve_dropped"`
	ILPPresolveRemoved uint64            `json:"ilp_presolve_removed"`
	ILPIncumbents      uint64            `json:"ilp_incumbents"`
	ILPSolves          map[string]uint64 `json:"ilp_solves,omitempty"`
	// Persistent result-store tier (zeros when no -store-dir).
	StoreHits    uint64 `json:"store_hits"`
	StoreMisses  uint64 `json:"store_misses"`
	StoreErrors  uint64 `json:"store_errors"`
	StorePuts    uint64 `json:"store_puts"`
	StoreEntries int    `json:"store_entries"`
	StoreBytes   int64  `json:"store_bytes"`
	// StoreDegraded reports the store's current degraded mode (I/O
	// failures; the memory tier keeps serving while it reprobes).
	StoreDegraded bool `json:"store_degraded"`
	// Peer cache tier (zeros when no -peers).
	PeerHits   uint64 `json:"peer_hits"`
	PeerMisses uint64 `json:"peer_misses"`
	PeerErrors uint64 `json:"peer_errors"`
	PeerPuts   uint64 `json:"peer_puts"`
	// Peer resilience: retry attempts absorbed by backoff, async pushes
	// dropped on a full queue, and each peer's breaker state.
	PeerRetries     uint64            `json:"peer_retries"`
	PeerPushDropped uint64            `json:"peer_push_dropped"`
	PeerBreakers    map[string]string `json:"peer_breakers,omitempty"`
	// Panics counts recovered panics by site ("optimizer", "worker",
	// "job"); Draining reports graceful-shutdown mode.
	Panics   map[string]uint64 `json:"panics,omitempty"`
	Draining bool              `json:"draining"`
	// Tenant admission control (zeros when no -tenants).
	ShedTotal      uint64            `json:"shed_total"`
	TenantRequests map[string]uint64 `json:"tenant_requests,omitempty"`
	TenantRejected map[string]uint64 `json:"tenant_rejected,omitempty"`
}

// VersionReply is the body answering GET /v1/version.
type VersionReply struct {
	Module     string `json:"module"`
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Revision and BuildTime identify the exact build from the VCS
	// stamp Go embeds (vcs.revision / vcs.time); "unknown" when built
	// outside a checkout (e.g. go test binaries). Modified marks a
	// build from a dirty working tree.
	Revision  string `json:"revision"`
	BuildTime string `json:"build_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

type errorReply struct {
	Error string `json:"error"`
	// Code is a stable machine-readable error class ("rate_limited",
	// "job_store_full", "unauthorized", "bad_query") so clients can
	// branch without parsing the human-readable message.
	Code string `json:"code,omitempty"`
}

// writeError answers with a coded error body. retryAfter > 0
// additionally sets the Retry-After header (whole seconds, rounded
// up), the contract every 429 this server emits honors.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, status, errorReply{Error: msg, Code: code})
}

// NewHandler exposes s over HTTP+JSON.
//
// The versioned surface is asynchronous and profile-aware:
//
//	POST   /v1/jobs             — submit a job (202 + JobReply)
//	GET    /v1/jobs             — list tracked jobs (JobListReply)
//	GET    /v1/jobs/{id}        — status + live progress (JobReply)
//	GET    /v1/jobs/{id}/result — the result once done (OptimizeReply)
//	DELETE /v1/jobs/{id}        — cancel the job
//	GET    /v1/jobs/{id}/events — progress as server-sent events
//	GET    /v1/jobs/{id}/trace  — the run's phase-span trace (TraceReply,
//	                              or Chrome trace-event JSON with ?format=chrome)
//	GET    /v1/rulesets         — named rule sets + content hashes
//	GET    /v1/costmodels       — named device cost models + hashes
//	GET    /v1/version          — build/runtime identification
//	GET    /v1/stats            — service counters (StatsReply)
//	GET    /v1/healthz          — liveness probe
//	GET    /v1/readyz           — readiness probe (503 while draining;
//	                              also at /readyz, both auth-exempt)
//	GET    /metrics             — Prometheus text exposition
//
// Deprecated surface, each answering with Deprecation/Link successor
// headers: POST /optimize (synchronous submit-and-wait, sharing the
// result cache and singleflight with the job surface), GET /stats and
// GET /healthz (pre-/v1 spellings of the operational endpoints).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", func(w http.ResponseWriter, r *http.Request) {
		handleOptimize(s, w, r)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmitJob(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleListJobs(s, w, r)
	})
	mux.HandleFunc("GET /v1/rulesets", func(w http.ResponseWriter, r *http.Request) {
		handleRuleSets(s, w, r)
	})
	mux.HandleFunc("GET /v1/costmodels", func(w http.ResponseWriter, r *http.Request) {
		handleCostModels(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := findJob(s, w, r); ok {
			writeJSON(w, http.StatusOK, toJobReply(job))
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleJobResult(s, w, r)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := findJob(s, w, r); ok {
			job.Cancel()
			// Cancellation is asynchronous (the run stops at its next
			// check point); report the state as of now.
			writeJSON(w, http.StatusOK, toJobReply(job))
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleJobEvents(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		handleJobTrace(s, w, r)
	})
	mux.Handle("GET /metrics", s.Metrics())
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, versionReply())
	})
	// Operational endpoints: /v1 spellings are canonical; the bare
	// pre-/v1 paths remain as shims carrying the same Deprecation/Link
	// headers the /optimize shim uses.
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		handleStats(s, w)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		handleHealthz(w)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		handleReadyz(s, w)
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		handleReadyz(s, w)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		deprecated(w, "/v1/stats")
		handleStats(s, w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		deprecated(w, "/v1/healthz")
		handleHealthz(w)
	})
	// Internal fleet surface: peers fetch records they own and push cold
	// results to their owners. Exempt from tenant (client) auth but
	// guarded by the cluster's shared secret — peerPreamble rejects any
	// request without it, so clients on the same listener cannot read or
	// poison the cache. Never fanning out (loop prevention by
	// construction; the origin header catches misconfiguration).
	mux.HandleFunc("GET /v1/peer/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		handlePeerGet(s, w, r)
	})
	mux.HandleFunc("PUT /v1/peer/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		handlePeerPut(s, w, r)
	})
	if s.cfg.Tenants == nil {
		return mux
	}
	return requireTenant(s, mux)
}

// tenantCtxKey carries the authenticated *tenant.Tenant through the
// request context from the auth middleware to the handlers.
type tenantCtxKey struct{}

// tenantFrom extracts the authenticated tenant (nil when the service
// runs without tenant auth).
func tenantFrom(ctx context.Context) *tenant.Tenant {
	tn, _ := ctx.Value(tenantCtxKey{}).(*tenant.Tenant)
	return tn
}

// authExempt lists the paths that skip *tenant* auth: probes and
// scrapers (healthz, metrics), build identification, profile
// discovery, and the node-to-node peer surface — which carries its own
// cluster-secret authentication in peerPreamble instead.
func authExempt(path string) bool {
	switch path {
	case "/healthz", "/v1/healthz", "/readyz", "/v1/readyz", "/metrics",
		"/v1/version", "/v1/rulesets", "/v1/costmodels":
		return true
	}
	return strings.HasPrefix(path, cluster.PeerPath)
}

// apiKey extracts the presented credential: "Authorization: Bearer
// <key>" or the "X-API-Key" header.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return key
		}
		return ""
	}
	return r.Header.Get("X-API-Key")
}

// requireTenant authenticates every non-exempt request against the
// tenant registry and stashes the resolved tenant in the context for
// the submission handlers' admission control.
func requireTenant(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if authExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		key := apiKey(r)
		if key == "" {
			writeError(w, http.StatusUnauthorized, "unauthorized",
				"missing API key (use Authorization: Bearer <key> or X-API-Key)", 0)
			return
		}
		tn, ok := s.cfg.Tenants.Lookup(key)
		if !ok {
			writeError(w, http.StatusUnauthorized, "unauthorized", "unknown API key", 0)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, &tn)))
	})
}

// maxPeerPayload bounds a pushed record; anything larger than the
// store's frame limit is corrupt by definition.
const maxPeerPayload = 1 << 30

// peerPreamble runs the shared peer-surface checks: the tier must be
// configured, the caller must present the cluster's shared secret
// (401 otherwise — the peer surface shares the client listener, and
// tenant auth exempts it, so this is its only gate), and a request
// whose origin header names this node is a routing loop (508), never
// served.
func peerPreamble(s *Service, w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Cluster == nil {
		writeError(w, http.StatusNotFound, "no_cluster", "this node is not part of a cluster", 0)
		return false
	}
	if !s.cfg.Cluster.Authorize(r.Header.Get(cluster.AuthHeader)) {
		writeError(w, http.StatusUnauthorized, "peer_unauthorized",
			"missing or invalid cluster secret ("+cluster.AuthHeader+" header)", 0)
		return false
	}
	if origin := r.Header.Get(cluster.OriginHeader); origin != "" && origin == s.cfg.Cluster.Self() {
		writeError(w, http.StatusLoopDetected, "peer_loop",
			"peer request originated from this node — check the -peers/-self configuration", 0)
		return false
	}
	return true
}

// handlePeerGet answers GET /v1/peer/cache/{key} strictly from this
// node's local tiers (the store's bytes, else the LRU's result
// re-encoded) — it never consults other peers, which is what makes
// routing loops structurally impossible.
func handlePeerGet(s *Service, w http.ResponseWriter, r *http.Request) {
	if !peerPreamble(s, w, r) {
		return
	}
	key := r.PathValue("key")
	var payload []byte
	for _, t := range s.local {
		// A degraded store reads as a miss here; the memory check below
		// may still answer.
		if p, err := t.get(r.Context(), key); err == nil {
			payload = p
			break
		}
	}
	if payload == nil {
		if entry, ok := s.cache.get(key); ok {
			if p, err := cachestore.Encode(entry.res, entry.tensors, entry.parts); err == nil {
				payload = p
			}
		}
	}
	if payload == nil {
		writeError(w, http.StatusNotFound, "not_found", "no record for key", 0)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// handlePeerPut accepts a pushed record for a key this node owns and
// publishes it to the local tiers. The payload is decoded before
// acceptance, and the record's embedded key components must re-derive
// the key it was pushed under — a peer cannot poison the store with
// bytes this node could not serve back, nor park a valid record under
// the wrong key.
func handlePeerPut(s *Service, w http.ResponseWriter, r *http.Request) {
	if !peerPreamble(s, w, r) {
		return
	}
	key := r.PathValue("key")
	if !s.cfg.Cluster.MayOwn(key) {
		// A correctly configured peer only pushes keys this node may own
		// — the primary owner or a fallover successor during the owner's
		// outage. Accepting arbitrary keys would let ring disagreements
		// scatter records across the fleet.
		writeError(w, http.StatusMisdirectedRequest, "not_owner",
			"this node does not own the key — check the -peers/-self configuration", 0)
		return
	}
	payload, err := io.ReadAll(io.LimitReader(r.Body, maxPeerPayload+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_payload", "reading record: "+err.Error(), 0)
		return
	}
	if len(payload) > maxPeerPayload {
		writeError(w, http.StatusRequestEntityTooLarge, "bad_payload", "record exceeds frame limit", 0)
		return
	}
	entry, err := decodeRecord(key, payload)
	switch {
	case errors.Is(err, errKeyMismatch):
		writeError(w, http.StatusBadRequest, "key_mismatch",
			"record's embedded identity does not derive the pushed key", 0)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_payload", "undecodable record: "+err.Error(), 0)
		return
	}
	s.publish(key, entry, payload, s.local)
	w.WriteHeader(http.StatusNoContent)
}

// deprecated stamps the headers a pre-/v1 path answers with: the same
// Deprecation marker and successor Link that /optimize carries.
func deprecated(w http.ResponseWriter, successor string) {
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
}

// peerBreakers spells each peer's circuit-breaker state ("closed",
// "open", "half-open") for /v1/stats and /readyz; nil outside a cluster.
func peerBreakers(s *Service) map[string]string {
	if s.cfg.Cluster == nil {
		return nil
	}
	states := s.cfg.Cluster.BreakerStates()
	words := make(map[string]string, len(states))
	for peer, st := range states {
		words[peer] = st.String()
	}
	return words
}

func handleStats(s *Service, w http.ResponseWriter) {
	st := s.Stats()
	writeJSON(w, http.StatusOK, StatsReply{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Deduped:       st.Deduped,
		Completed:     st.Completed,
		Errors:        st.Errors,
		Canceled:      st.Canceled,
		InFlight:      st.InFlight,
		CacheEntries:  st.CacheEntries,
		Workers:       s.Workers(),
		P50MS:         float64(st.P50) / float64(time.Millisecond),
		P95MS:         float64(st.P95) / float64(time.Millisecond),
		P99MS:         float64(st.P99) / float64(time.Millisecond),
		JobsSubmitted: st.Jobs.Submitted,
		JobsRunning:   st.Jobs.Running,
		JobsDone:      st.Jobs.Done,
		JobsCanceled:  st.Jobs.Canceled,
		JobsFailed:    st.Jobs.Failed,
		Profiles:      st.Profiles,

		SearchClassesScanned: st.Search.ClassesScanned,
		SearchClassesPruned:  st.Search.ClassesPruned,
		SearchDirtySearched:  st.Search.DirtySearched,
		SearchCleanReused:    st.Search.CleanReused,
		SearchMatches:        st.Search.Matches,

		ILPPresolveFixed:   st.ILP.PresolveFixed,
		ILPPresolveDropped: st.ILP.PresolveDropped,
		ILPPresolveRemoved: st.ILP.PresolveRemoved,
		ILPIncumbents:      st.ILP.Incumbents,
		ILPSolves:          st.ILP.Solves,

		CacheBytes:   st.CacheBytes,
		QueueWaiting: st.QueueWaiting,
		StoreHits:    st.Store.Hits,
		StoreMisses:  st.Store.Misses,
		StoreErrors:  st.Store.Errors,
		StorePuts:    st.Store.Puts,
		StoreEntries: st.StoreEntries,
		StoreBytes:   st.StoreBytes,
		PeerHits:     st.Peer.Hits,
		PeerMisses:   st.Peer.Misses,
		PeerErrors:   st.Peer.Errors,
		PeerPuts:     st.Peer.Puts,

		StoreDegraded:   st.StoreDegraded,
		PeerRetries:     st.PeerRetries,
		PeerPushDropped: st.PeerPushDropped,
		PeerBreakers:    peerBreakers(s),
		Panics:          st.Panics,
		Draining:        st.Draining,

		ShedTotal:      st.Shed,
		TenantRequests: st.TenantRequests,
		TenantRejected: st.TenantRejected,
	})
}

func handleHealthz(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ReadyzReply is the body answering GET /readyz: readiness for a load
// balancer, distinct from /healthz liveness. A draining node answers
// 503 so traffic shifts away while running jobs finish; a degraded
// store or an open breaker is reported but keeps the node ready — the
// memory tier and local compute still answer requests.
type ReadyzReply struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// StoreDegraded reports the persistent store's degraded mode (false
	// when no store is configured).
	StoreDegraded bool `json:"store_degraded"`
	// PeerBreakers maps each peer to its circuit-breaker state
	// ("closed", "open", "half-open"); omitted outside a cluster.
	PeerBreakers map[string]string `json:"peer_breakers,omitempty"`
}

// handleReadyz answers GET /readyz. Auth-exempt: load balancers and
// orchestrators probe it without credentials, and it leaks nothing a
// tenant could abuse.
func handleReadyz(s *Service, w http.ResponseWriter) {
	reply := ReadyzReply{Draining: s.Draining(), StoreDegraded: s.storeDegraded(), PeerBreakers: peerBreakers(s)}
	reply.Ready = !reply.Draining
	status := http.StatusOK
	if !reply.Ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, reply)
}

// handleListJobs answers GET /v1/jobs with a summary of tracked jobs,
// oldest first. ?status= filters by lifecycle state and ?limit= caps
// the row count; junk values (and unknown parameters) are 400s instead
// of silently ignored filters.
func handleListJobs(s *Service, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for k := range q {
		if k != "status" && k != "limit" {
			writeError(w, http.StatusBadRequest, "bad_query",
				"unknown query parameter "+strconv.Quote(k)+" (known: status, limit)", 0)
			return
		}
	}
	var statusFilter JobStatus
	if v := q.Get("status"); v != "" {
		switch JobStatus(v) {
		case JobRunning, JobDone, JobCanceled, JobFailed:
			statusFilter = JobStatus(v)
		default:
			writeError(w, http.StatusBadRequest, "bad_query",
				"unknown status "+strconv.Quote(v)+" (known: running, done, canceled, failed)", 0)
			return
		}
	}
	limit := -1
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad_query",
				"limit must be a positive integer, got "+strconv.Quote(v), 0)
			return
		}
		limit = n
	}

	jobs := s.Jobs()
	reply := JobListReply{Jobs: make([]JobSummaryReply, 0, len(jobs))}
	now := time.Now()
	for _, j := range jobs {
		status, _ := j.Status()
		if statusFilter != "" && status != statusFilter {
			continue
		}
		if limit >= 0 && len(reply.Jobs) >= limit {
			break
		}
		rs, cm := j.Profile()
		reply.Jobs = append(reply.Jobs, JobSummaryReply{
			ID:        j.ID(),
			Status:    string(status),
			AgeMS:     float64(now.Sub(j.Created())) / float64(time.Millisecond),
			RuleSet:   rs,
			CostModel: cm,
			StatusURL: "/v1/jobs/" + j.ID(),
		})
	}
	reply.Count = len(reply.Jobs)
	writeJSON(w, http.StatusOK, reply)
}

// handleRuleSets answers GET /v1/rulesets from the service registry.
func handleRuleSets(s *Service, w http.ResponseWriter, _ *http.Request) {
	infos := s.Registry().RuleSets()
	reply := RuleSetsReply{RuleSets: make([]RuleSetReply, 0, len(infos)), Count: len(infos)}
	for _, info := range infos {
		reply.RuleSets = append(reply.RuleSets, RuleSetReply{
			Name:       info.Name,
			Hash:       info.Hash,
			Rules:      info.Rules,
			MultiRules: info.MultiRules,
			Source:     info.Source,
		})
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleCostModels answers GET /v1/costmodels from the service
// registry.
func handleCostModels(s *Service, w http.ResponseWriter, _ *http.Request) {
	infos := s.Registry().CostModels()
	reply := CostModelsReply{CostModels: make([]CostModelReply, 0, len(infos)), Count: len(infos)}
	for _, info := range infos {
		reply.CostModels = append(reply.CostModels, CostModelReply{
			Name:   info.Name,
			Hash:   info.Hash,
			Params: info.Params,
			Source: info.Source,
		})
	}
	writeJSON(w, http.StatusOK, reply)
}

func versionReply() VersionReply {
	v := VersionReply{
		Module:     "tensat",
		Version:    "(devel)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	v.Revision = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			v.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			v.Version = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				v.Revision = kv.Value
			case "vcs.time":
				v.BuildTime = kv.Value
			case "vcs.modified":
				v.Modified = kv.Value == "true"
			}
		}
	}
	return v
}

// maxRequestBody bounds a submission body. The largest model-zoo graph
// is 4 KB on the wire; anything near this limit is a mistake or an
// attack, and is refused before it is buffered.
const maxRequestBody = 16 << 20

// decodeRequest parses an OptimizeRequest strictly (unknown fields are
// errors) and decodes the wire graph. On failure it answers 400 (413
// for a body over maxRequestBody) and returns ok=false.
func decodeRequest(w http.ResponseWriter, r *http.Request) (OptimizeRequest, *tensat.Graph, bool) {
	var req OptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), 0)
			return req, nil, false
		}
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad request body: " + err.Error()})
		return req, nil, false
	}
	if req.Graph == "" {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "missing graph"})
		return req, nil, false
	}
	g, err := tensor.UnmarshalGraph([]byte(req.Graph))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad graph: " + err.Error()})
		return req, nil, false
	}
	return req, g, true
}

func findJob(s *Service, w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "unknown job " + id})
		return nil, false
	}
	return job, true
}

func handleSubmitJob(s *Service, w http.ResponseWriter, r *http.Request) {
	req, g, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	job, err := s.SubmitJobAs(g, req.Options, time.Duration(req.TimeoutMS)*time.Millisecond, tenantFrom(r.Context()))
	if err != nil {
		var rle *RateLimitError
		switch {
		case errors.Is(err, ErrBadOptions):
			writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			// Shutting down: send the client to another node.
			writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), time.Second)
		case errors.Is(err, ErrJobStoreFull):
			// Backpressure, not a fault: tell the client when to retry
			// and which condition it hit.
			writeError(w, http.StatusTooManyRequests, "job_store_full", err.Error(), time.Second)
		case errors.As(err, &rle):
			writeError(w, http.StatusTooManyRequests, "rate_limited", err.Error(), rle.RetryAfter)
		default:
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, toJobReply(job))
}

func handleJobResult(s *Service, w http.ResponseWriter, r *http.Request) {
	job, ok := findJob(s, w, r)
	if !ok {
		return
	}
	select {
	case <-job.Done():
	default:
		status, prog := job.Status()
		writeJSON(w, http.StatusConflict, errorReply{
			Error: fmt.Sprintf("job %s not finished (status %s, phase %s)", job.ID(), status, prog.Phase),
		})
		return
	}
	resp, err := job.Outcome()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusConflict // canceled: there is no result to fetch
		}
		writeJSON(w, status, errorReply{Error: err.Error()})
		return
	}
	writeOptimizeReply(w, resp)
}

// handleJobEvents streams the job's progress log as server-sent
// events: one "progress" event per snapshot (full history replayed
// first, so late subscribers see everything), then a final "done"
// event with the terminal JobReply. During quiet phases (a long ILP
// solve between incumbents, say) the stream emits ": keepalive"
// comment lines every Config.SSEKeepAlive so intermediary proxies
// don't reap the idle connection; comment lines are invisible to
// EventSource clients by SSE semantics.
func handleJobEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	job, ok := findJob(s, w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusNotImplemented, errorReply{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}

	var keepalive <-chan time.Time
	if s.cfg.SSEKeepAlive > 0 {
		t := time.NewTicker(s.cfg.SSEKeepAlive)
		defer t.Stop()
		keepalive = t.C
	}

	idx := 0
	for {
		entries, next, notify := job.ProgressSince(idx)
		idx = next
		for _, p := range entries {
			emit("progress", toProgressReply(p))
		}
		if len(entries) > 0 {
			flusher.Flush()
		}
		select {
		case <-job.Done():
			// Drain snapshots published between the last pump and the
			// close, then finish with the terminal state.
			entries, _, _ := job.ProgressSince(idx)
			for _, p := range entries {
				emit("progress", toProgressReply(p))
			}
			emit("done", toJobReply(job))
			flusher.Flush()
			return
		case <-s.drain.channel():
			// Graceful drain: end the stream with an explicit terminal
			// event (the job itself keeps running to completion under the
			// drain timeout; the client can poll it from another node or
			// after restart).
			emit("draining", toJobReply(job))
			flusher.Flush()
			return
		case <-notify:
		case <-keepalive:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// TraceSpanReply is one phase span of a job's trace on the wire; spans
// nest into the tree recorded by the pipeline (see tensat.TraceSpan).
type TraceSpanReply struct {
	Name       string            `json:"name"`
	StartMS    float64           `json:"start_ms"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]int64  `json:"attrs,omitempty"`
	Events     []TraceEventReply `json:"events,omitempty"`
	Children   []TraceSpanReply  `json:"children,omitempty"`
}

// TraceEventReply is a point-in-time event inside a span (e.g. an ILP
// incumbent improvement; Value is the new incumbent cost).
type TraceEventReply struct {
	Name  string  `json:"name"`
	AtMS  float64 `json:"at_ms"`
	Value float64 `json:"value"`
}

// TraceReply is the body answering GET /v1/jobs/{id}/trace: the span
// tree of the run that produced the job's result, plus the job's
// recorded wall time. For cached or deduplicated jobs the trace is the
// original cold run's, so its spans can predate the job itself.
type TraceReply struct {
	ID string `json:"id"`
	// Cached and Deduped mirror the job outcome: when either is set the
	// trace was recorded by the original cold run, not this job.
	Cached  bool `json:"cached"`
	Deduped bool `json:"deduped"`
	// WallMS is the job's own recorded wall time (terminal progress
	// Elapsed).
	WallMS float64        `json:"wall_ms"`
	Trace  TraceSpanReply `json:"trace"`
}

func toTraceSpanReply(s *tensat.TraceSpan) TraceSpanReply {
	r := TraceSpanReply{
		Name:       s.Name,
		StartMS:    float64(s.Start) / float64(time.Millisecond),
		DurationMS: float64(s.Duration) / float64(time.Millisecond),
	}
	if len(s.Attrs) > 0 {
		r.Attrs = make(map[string]int64, len(s.Attrs))
		for k, v := range s.Attrs {
			r.Attrs[k] = v
		}
	}
	for _, e := range s.Events {
		r.Events = append(r.Events, TraceEventReply{
			Name:  e.Name,
			AtMS:  float64(e.At) / float64(time.Millisecond),
			Value: e.Value,
		})
	}
	for _, c := range s.Children {
		r.Children = append(r.Children, toTraceSpanReply(c))
	}
	return r
}

// handleJobTrace answers GET /v1/jobs/{id}/trace: 409 while the job
// runs (mirroring /result), 404 when the job finished without a trace
// (canceled or failed runs have no result to trace). ?format=chrome
// answers in the Chrome trace-event JSON that Perfetto opens directly.
func handleJobTrace(s *Service, w http.ResponseWriter, r *http.Request) {
	job, ok := findJob(s, w, r)
	if !ok {
		return
	}
	select {
	case <-job.Done():
	default:
		status, prog := job.Status()
		writeJSON(w, http.StatusConflict, errorReply{
			Error: fmt.Sprintf("job %s not finished (status %s, phase %s)", job.ID(), status, prog.Phase),
		})
		return
	}
	resp, err := job.Outcome()
	if err != nil || resp == nil || resp.Result == nil || resp.Result.Trace == nil {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "job " + job.ID() + " has no trace"})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="`+job.ID()+`.trace.json"`)
		_ = tensat.WriteChromeTrace(w, resp.Result.Trace)
		return
	}
	_, prog := job.Status()
	writeJSON(w, http.StatusOK, TraceReply{
		ID:      job.ID(),
		Cached:  resp.Cached,
		Deduped: resp.Deduped,
		WallMS:  float64(prog.Elapsed) / float64(time.Millisecond),
		Trace:   toTraceSpanReply(resp.Result.Trace),
	})
}

// statusRecorder captures the response code for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming keeps working
// behind the access log.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog wraps next with structured per-request logging: method,
// path, status, duration and remote address, one record per request at
// Info level.
func AccessLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", time.Since(start),
			"remote", r.RemoteAddr)
	})
}

func handleOptimize(s *Service, w http.ResponseWriter, r *http.Request) {
	// The synchronous endpoint predates the /v1 job surface and is
	// kept as a submit-and-wait shim (it still shares the result cache
	// and singleflight). Headers point clients at the successor.
	deprecated(w, "/v1/jobs")
	req, g, ok := decodeRequest(w, r)
	if !ok {
		return
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resp, err := s.OptimizeAs(ctx, g, req.Options, tenantFrom(r.Context()))
	if err != nil {
		var rle *RateLimitError
		if errors.As(err, &rle) {
			writeError(w, http.StatusTooManyRequests, "rate_limited", err.Error(), rle.RetryAfter)
			return
		}
		if errors.Is(err, ErrDraining) {
			writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), time.Second)
			return
		}
		var perr *tensat.PanicError
		if errors.As(err, &perr) {
			// A recovered pipeline panic: a server fault with a stable
			// code, never cached, and — by virtue of answering at all —
			// proof the daemon survived it.
			writeError(w, http.StatusInternalServerError, "internal_error", err.Error(), 0)
			return
		}
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrBadOptions):
			status = http.StatusBadRequest
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// Client went away mid-request; the reply is best-effort.
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorReply{Error: err.Error()})
		return
	}
	writeOptimizeReply(w, resp)
}

func writeOptimizeReply(w http.ResponseWriter, resp *Response) {
	text, err := resp.Result.Graph.MarshalText()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
		return
	}
	res := resp.Result
	writeJSON(w, http.StatusOK, OptimizeReply{
		Fingerprint:    resp.Fingerprint,
		Cached:         resp.Cached,
		Deduped:        resp.Deduped,
		CacheTier:      resp.Tier,
		Degraded:       resp.Degraded,
		Graph:          string(text),
		OrigCost:       res.OrigCost,
		OptCost:        res.OptCost,
		SpeedupPercent: res.SpeedupPercent,
		ExploreMS:      float64(res.ExploreTime) / float64(time.Millisecond),
		ExtractMS:      float64(res.ExtractTime) / float64(time.Millisecond),
		ENodes:         res.ENodes,
		EClasses:       res.EClasses,
		Iterations:     res.Iterations,
		Saturated:      res.Saturated,
		Truncated:      res.Truncated,
		ILPOptimal:     res.ILPOptimal,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
