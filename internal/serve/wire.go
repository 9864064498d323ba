package serve

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"time"

	"tensat"
)

// This file holds the JSON bodies of the HTTP surface and their
// converters from the service's own types; routes and handlers are in
// http.go.

// OptimizeRequest is the body of POST /v1/jobs: the graph in the
// textual wire format of tensor.Graph.MarshalText, the optimization
// knobs — including the "ruleset"/"cost_model" profile selectors — and
// an optional deadline. Unknown fields are rejected,
// so a typo like "worker": 4 errors instead of silently running with
// defaults.
type OptimizeRequest struct {
	// Graph is the graph in the S-expression wire format, e.g.
	// "(output (matmul 0 (input \"x@64 256\") (weight \"w@256 256\")))".
	Graph string `json:"graph"`
	// Options refine the server's base configuration.
	Options RequestOptions `json:"options"`
	// TimeoutMS bounds the job, which otherwise runs until done or
	// canceled.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// OptimizeReply is the body answering GET /v1/jobs/{id}/result.
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
	// profile.
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
	status, prog, err := j.snapshot()
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
	if err != nil {
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
	// operator index, and matches found.
	SearchClassesScanned uint64 `json:"search_classes_scanned"`
	SearchClassesPruned  uint64 `json:"search_classes_pruned"`
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
	// "job_store_full", "draining", "internal_error", "unauthorized",
	// "bad_query") so clients can branch without parsing the
	// human-readable message.
	Code string `json:"code,omitempty"`
}

// ReadyzReply is the body answering GET /readyz: readiness for a load
// balancer, distinct from /v1/healthz liveness. A draining node answers
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

// toOptimizeReply spells a finished run on the wire; it fails only if
// the result graph does not marshal.
func toOptimizeReply(resp *Response) (OptimizeReply, error) {
	text, err := resp.Result.Graph.MarshalText()
	if err != nil {
		return OptimizeReply{}, err
	}
	res := resp.Result
	return OptimizeReply{
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
	}, nil
}

// encodeReply is toOptimizeReply as the /result body writeJSON would write.
func encodeReply(resp *Response) ([]byte, error) {
	reply, err := toOptimizeReply(resp)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(reply)
	return append(body, '\n'), err
}
