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
	"strconv"
	"strings"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/tenant"
	"tensat/internal/tensor"
)

// writeError answers with a coded error body. retryAfter > 0
// additionally sets the Retry-After header (whole seconds, rounded
// up), the contract every 429 this server emits honors.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, status, errorReply{Error: msg, Code: code})
}

// writeServiceError answers a failed submission or a failed job's
// result: the one table from a Service error to its status, stable
// code and Retry-After, so both handlers classify alike. Anything
// unlisted is a bare 500.
func writeServiceError(w http.ResponseWriter, err error) {
	var (
		rle    *RateLimitError
		perr   *tensat.PanicError
		status = http.StatusInternalServerError
		code   string
		retry  time.Duration
	)
	switch {
	case errors.Is(err, ErrBadOptions):
		status = http.StatusBadRequest
	case errors.Is(err, ErrDraining):
		// Shutting down: send the client to another node.
		status, code, retry = http.StatusServiceUnavailable, "draining", time.Second
	case errors.Is(err, ErrJobStoreFull):
		// Backpressure, not a fault: tell the client when to retry.
		status, code, retry = http.StatusTooManyRequests, "job_store_full", time.Second
	case errors.As(err, &rle):
		status, code, retry = http.StatusTooManyRequests, "rate_limited", rle.RetryAfter
	case errors.As(err, &perr):
		// A recovered panic: a server fault, never cached, and — by
		// virtue of answering at all — proof the daemon survived it.
		code = "internal_error"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusConflict // canceled job: there is no result to fetch
	}
	writeError(w, status, code, err.Error(), retry)
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
//	GET/PUT /v1/peer/cache/{key} — node-to-node cache surface (the
//	                              cluster secret, not tenant auth)
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h func(*Service, http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { h(s, w, r) })
	}
	route("POST /v1/jobs", handleSubmitJob)
	route("GET /v1/jobs", handleListJobs)
	route("GET /v1/rulesets", handleRuleSets)
	route("GET /v1/costmodels", handleCostModels)
	route("GET /v1/jobs/{id}", func(s *Service, w http.ResponseWriter, r *http.Request) {
		if job, ok := findJob(s, w, r, false); ok {
			writeJSON(w, http.StatusOK, toJobReply(job))
		}
	})
	route("GET /v1/jobs/{id}/result", handleJobResult)
	route("DELETE /v1/jobs/{id}", func(s *Service, w http.ResponseWriter, r *http.Request) {
		if job, ok := findJob(s, w, r, false); ok {
			job.Cancel()
			// Cancellation is asynchronous (the run stops at its next
			// check point); report the state as of now.
			writeJSON(w, http.StatusOK, toJobReply(job))
		}
	})
	route("GET /v1/jobs/{id}/events", handleJobEvents)
	route("GET /v1/jobs/{id}/trace", handleJobTrace)
	mux.Handle("GET /metrics", s.Metrics())
	route("GET /v1/version", func(_ *Service, w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, versionReply())
	})
	route("GET /v1/stats", func(s *Service, w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	route("GET /v1/healthz", handleHealthz)
	route("GET /readyz", handleReadyz)
	route("GET /v1/readyz", handleReadyz)
	// Internal fleet surface: peers fetch records they own and push cold
	// results to their owners. Exempt from tenant (client) auth but
	// guarded by the cluster's shared secret — peerPreamble rejects any
	// request without it, so clients on the same listener cannot read or
	// poison the cache. Never fanning out (loop prevention by
	// construction; the origin header catches misconfiguration).
	route("GET /v1/peer/cache/{key}", handlePeerGet)
	route("PUT /v1/peer/cache/{key}", handlePeerPut)
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
	case "/v1/healthz", "/readyz", "/v1/readyz", "/metrics",
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

func handleHealthz(_ *Service, w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers GET /readyz. Auth-exempt: load balancers and
// orchestrators probe it without credentials, and it leaks nothing a
// tenant could abuse.
func handleReadyz(s *Service, w http.ResponseWriter, _ *http.Request) {
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
		reply.CostModels = append(reply.CostModels, CostModelReply(info))
	}
	writeJSON(w, http.StatusOK, reply)
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

// findJob looks up the job the path names (404 when unknown); with
// finished set, a job still running is a 409.
func findJob(s *Service, w http.ResponseWriter, r *http.Request, finished bool) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "unknown job " + id})
		return nil, false
	}
	if status, prog := job.Status(); finished && status == JobRunning {
		writeJSON(w, http.StatusConflict, errorReply{
			Error: fmt.Sprintf("job %s not finished (status %s, phase %s)", job.ID(), status, prog.Phase),
		})
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
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, toJobReply(job))
}

func handleJobResult(s *Service, w http.ResponseWriter, r *http.Request) {
	job, ok := findJob(s, w, r, true)
	if !ok {
		return
	}
	out, err := job.Outcome()
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.Reply)
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
	job, ok := findJob(s, w, r, false)
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

// handleJobTrace answers GET /v1/jobs/{id}/trace: 409 while the job
// runs (mirroring /result), 404 when the job finished without a trace
// (canceled or failed runs have no result to trace). ?format=chrome
// answers in the Chrome trace-event JSON that Perfetto opens directly.
func handleJobTrace(s *Service, w http.ResponseWriter, r *http.Request) {
	job, ok := findJob(s, w, r, true)
	if !ok {
		return
	}
	out, err := job.Outcome()
	if err != nil || out.Trace == nil {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "job " + job.ID() + " has no trace"})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="`+job.ID()+`.trace.json"`)
		_ = tensat.WriteChromeTrace(w, out.Trace)
		return
	}
	_, prog := job.Status()
	writeJSON(w, http.StatusOK, TraceReply{
		ID:      job.ID(),
		Cached:  out.Cached,
		Deduped: out.Deduped,
		WallMS:  float64(prog.Elapsed) / float64(time.Millisecond),
		Trace:   toTraceSpanReply(out.Trace),
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

// writeJSON answers with v as compact JSON, encoded once.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
