// Package serve wraps the TENSAT optimization pipeline in a concurrent
// service suitable for a daemon (cmd/tensatd): structurally identical
// graphs are recognized by canonical content hashing
// (internal/fingerprint), finished results are held in an LRU cache
// keyed by fingerprint+options, identical in-flight requests are
// deduplicated onto one optimization run (reference-counted
// singleflight), and runs execute on a bounded worker pool with
// per-request context propagation down into exploration and
// extraction. Every counter lives once, in the obs registry behind
// GET /metrics (metrics.go); Stats is a read of those instruments.
//
// Finished results are held in tiers: the in-memory LRU, then the byte
// tiers behind one small interface (tier.go) — the persistent store
// and the owning fleet peer — which lookup and the write-through walk
// in one loop.
//
// Two request surfaces share that machinery. Optimize is synchronous:
// it blocks the caller until the run (or its cached/deduplicated
// stand-in) finishes. SubmitJob is asynchronous: it registers a Job in
// a TTL-bounded, capacity-capped store and returns immediately; the
// job's live progress (exploration iterations, ILP incumbents)
// streams through a per-job broadcast log that HTTP exposes by polling
// and as server-sent events. Deduplicated jobs share one progress
// stream, and a canceled job frees its worker slot (when it was the
// last interested party) without ever caching the partial result.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/fingerprint"
	"tensat/internal/ilp/backend"
	"tensat/internal/obs"
	"tensat/internal/tenant"
	"tensat/internal/tensor"
)

// Config sizes a Service.
type Config struct {
	// Workers bounds concurrently running optimizations; 0 means
	// GOMAXPROCS. Requests beyond the bound queue for a slot.
	Workers int
	// CacheSize is the LRU capacity in results; 0 means 256.
	CacheSize int
	// MaxJobs caps the asynchronous job store; 0 means 1024. When the
	// store is full of unfinished jobs, SubmitJob fails with
	// ErrJobStoreFull.
	MaxJobs int
	// JobTTL bounds how long a finished job (its result and progress
	// log) stays queryable; 0 means 15 minutes.
	JobTTL time.Duration
	// Base is the option template requests refine. Its zero value
	// means tensat.DefaultOptions. A programmatic Rules/CostModel here
	// is service-wide ("custom" in stats and job listings); requests
	// override it by naming a registered profile.
	Base tensat.Options
	// Registry resolves the "ruleset" and "cost_model" names requests
	// select; nil means tensat.DefaultRegistry() (the built-ins plus
	// whatever the daemon loaded from -rules-dir/-device-dir).
	Registry *tensat.Registry
	// Logger receives structured job/request lifecycle records (job id,
	// profile, cache outcome, duration). nil discards them — tests and
	// embedders that don't care pay nothing.
	Logger *slog.Logger
	// SSEKeepAlive is how often an idle /v1/jobs/{id}/events stream
	// emits a ": keepalive" comment line so proxies and load balancers
	// don't reap quiet connections; 0 means 15 seconds, negative
	// disables keepalives.
	SSEKeepAlive time.Duration
	// CacheMaxBytes additionally bounds the in-memory LRU by the summed
	// encoded size of its entries; 0 means unbounded (entry count only).
	CacheMaxBytes int64
	// Store, when non-nil, is the persistent second cache tier: results
	// are written through on completion and consulted on LRU misses, so
	// a restarted daemon keeps its warm set.
	Store cachestore.Store
	// StoreReprobe is how often a degraded store (one that returned an
	// I/O error) lets one operation through to test whether the fault
	// has cleared; 0 means 5 seconds. While degraded, the memory tier
	// keeps serving and store operations are skipped, not failed.
	StoreReprobe time.Duration
	// Cluster, when non-nil, is the peer cache tier: keys whose
	// consistent-hash owner is another node are fetched from (and cold
	// results pushed to) that owner. Peer failures degrade to local
	// compute, never to request failure.
	Cluster *cluster.Client
	// Tenants, when non-nil, turns on API-key authentication and
	// per-tenant admission control (rate limits, concurrency quotas,
	// priorities, load shedding) for the HTTP surface.
	Tenants *tenant.Registry
	// NoShedPriority is the tenant priority at or above which requests
	// are never quality-degraded: a saturated high-priority tenant gets
	// an explicit 429 instead of a silently weaker answer. 0 means 100.
	NoShedPriority int
}

// Service is a concurrent graph-optimization service.
type Service struct {
	cfg     Config
	queue   *workQueue
	cache   *lruCache
	flight  *flightGroup
	jobs    *jobStore
	metrics *metrics
	log     *slog.Logger

	// tiers are the byte-level cache tiers behind the LRU, in lookup
	// order; local is the prefix of them that lives on this node (the
	// peer surface reads and writes only those). disk is cfg.Store's
	// tier, nil when no store is configured.
	tiers []tier
	local []tier
	disk  *storeTier

	// drain coordinates graceful shutdown.
	drain *drainState

	// opt is the shared optimizer: the rule set and cost model are
	// compiled once at construction and reused by every run.
	opt *tensat.Optimizer

	// optimize runs one optimization, injectable by tests to model
	// slow, blocking, or failing optimizations deterministically. The
	// default submits to the shared Optimizer; opts.Progress (set by
	// run for every flight) must be honored by replacements that want
	// observable progress.
	optimize func(context.Context, *tensat.Graph, tensat.Options) (*tensat.Result, error)
}

// New builds a Service from cfg.
//
//lint:ctxflow-exempt constructor: bounded passes over config and fleet membership; no I/O
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	if isZeroOptions(cfg.Base) {
		cfg.Base = tensat.DefaultOptions()
	}
	if cfg.Registry == nil {
		cfg.Registry = tensat.DefaultRegistry()
	}
	if cfg.SSEKeepAlive == 0 {
		cfg.SSEKeepAlive = 15 * time.Second
	}
	if cfg.NoShedPriority <= 0 {
		cfg.NoShedPriority = 100
	}
	s := &Service{
		cfg:    cfg,
		queue:  newWorkQueue(cfg.Workers),
		cache:  newLRUCache(cfg.CacheSize, cfg.CacheMaxBytes),
		flight: newFlightGroup(),
		jobs:   newJobStore(cfg.MaxJobs, cfg.JobTTL),
		opt:    tensat.NewOptimizer(tensat.WithRegistry(cfg.Registry)),
	}
	s.log = cfg.Logger
	if s.log == nil {
		// go1.22 has no slog.DiscardHandler; a Text handler on
		// io.Discard is the same thing.
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.drain = newDrainState()
	s.metrics = newMetrics(s)
	if cfg.Store != nil {
		s.disk = newStoreTier(cfg.Store, cfg.StoreReprobe, s.metrics.store, s.log)
		s.tiers = append(s.tiers, s.disk)
	}
	s.local = s.tiers
	if cl := cfg.Cluster; cl != nil {
		peers := &peerTier{cl: cl, m: s.metrics.peer, log: s.log, dropped: s.metrics.peerPushDropped}
		s.tiers = append(s.tiers, peers)
		// Pre-touch every peer's breaker gauge so dashboards see the
		// closed (0) state before the first transition.
		self := cl.Self()
		for _, peer := range cl.Nodes() {
			if peer != self {
				s.metrics.peerBreaker.With(peer).Set(float64(cluster.BreakerClosed))
			}
		}
		cl.SetObserver(cluster.Observer{
			BreakerChange: func(peer string, state cluster.BreakerState) {
				s.metrics.peerBreaker.With(peer).Set(float64(state))
				s.log.Warn("peer breaker transition", "peer", peer, "state", state.String())
			},
			PushDone:   peers.pushDone,
			FetchRetry: func(string) { s.metrics.peerRetries.Inc() },
		})
	}
	s.optimize = func(ctx context.Context, g *tensat.Graph, opts tensat.Options) (*tensat.Result, error) {
		job, err := s.opt.Submit(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		return job.Result()
	}
	return s
}

// Metrics returns the service's Prometheus registry (the GET /metrics
// exposition source). Embedders may mount it on their own mux.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

func isZeroOptions(o tensat.Options) bool {
	return o.Rules == nil && o.CostModel == nil &&
		o.RuleSet == "" && o.CostModelName == "" && o.NodeLimit == 0 &&
		o.IterLimit == 0 && o.KMulti == 0 && o.ExploreTimeout == 0 &&
		o.ILPTimeout == 0 && o.Extractor == tensat.ExtractILP &&
		o.CycleFilter == tensat.FilterEfficient && !o.TopoInt &&
		o.Workers == 0 && o.ILPSolver == "" && o.Progress == nil && !o.Trace
}

// RequestOptions are the per-request optimization knobs. The zero
// value inherits every setting from the service's Config.Base. Field
// names double as the JSON schema of "options" in POST /v1/jobs.
//
// Every exported field must be folded into the effective
// tensat.Options by apply — that is how request knobs reach the cache
// key — or carry a //lint:cachekey-exempt justification. tensatlint's
// cachekey analyzer enforces this; see cmd/tensatlint.
//
//lint:cachekey keyfunc=tensat/internal/serve.RequestOptions.apply
type RequestOptions struct {
	// RuleSet names the rewrite rule set to optimize with (e.g.
	// "taso-default", "taso-single", or a profile loaded from a .rules
	// file). "" inherits the service default; an unknown name is a 400
	// carrying the list of known names.
	RuleSet string `json:"ruleset,omitempty"`
	// CostModel names the device cost model (e.g. "t4", "a100", "cpu",
	// or a loaded device spec). "" inherits; unknown names are 400s.
	CostModel string `json:"cost_model,omitempty"`
	NodeLimit int    `json:"node_limit,omitempty"`
	IterLimit int    `json:"iter_limit,omitempty"`
	KMulti    int    `json:"k_multi,omitempty"`
	// Extractor is "ilp" or "greedy" ("" inherits).
	Extractor string `json:"extractor,omitempty"`
	// CycleFilter is "efficient", "vanilla" or "none" ("" inherits).
	CycleFilter string `json:"cycle_filter,omitempty"`
	TopoInt     bool   `json:"topo_int,omitempty"`
	// ExploreTimeoutMS soft-bounds exploration; ILPTimeoutMS bounds the
	// ILP solver. Zero inherits.
	ExploreTimeoutMS int64 `json:"explore_timeout_ms,omitempty"`
	ILPTimeoutMS     int64 `json:"ilp_timeout_ms,omitempty"`
	// Workers is accepted (0 inherits the server base; negative is
	// rejected) but no longer changes a run: exploration searches on
	// one goroutine.
	Workers int `json:"workers,omitempty"`
	// ILPSolver selects the ILP extraction backend: "builtin" (parallel
	// branch-and-bound), "builtin-seq", or an external MIP solver on the
	// server's PATH ("cbc", "highs"). "" inherits; unknown names are
	// 400s. Distinct backends are distinct cache entries: under a time
	// budget their anytime answers legitimately differ.
	ILPSolver string `json:"ilp_solver,omitempty"`
}

// ErrBadOptions marks RequestOptions validation failures, so transport
// layers can classify them as client errors.
var ErrBadOptions = errors.New("serve: bad request options")

// apply refines base with the request's non-zero knobs. Profile names
// are carried over verbatim; resolveProfile validates them against the
// registry and computes the content hashes the cache key needs.
func (ro RequestOptions) apply(base tensat.Options) (tensat.Options, error) {
	o := base
	if ro.RuleSet != "" {
		// A named profile replaces the service-wide rule set entirely —
		// including a programmatic Config.Base.Rules override.
		o.RuleSet = ro.RuleSet
		o.Rules = nil
	}
	if ro.CostModel != "" {
		o.CostModelName = ro.CostModel
		o.CostModel = nil
	}
	if ro.NodeLimit > 0 {
		o.NodeLimit = ro.NodeLimit
	}
	if ro.IterLimit > 0 {
		o.IterLimit = ro.IterLimit
	}
	if ro.KMulti > 0 {
		o.KMulti = ro.KMulti
	}
	switch ro.Extractor {
	case "":
	case "ilp":
		o.Extractor = tensat.ExtractILP
	case "greedy":
		o.Extractor = tensat.ExtractGreedy
	default:
		return o, fmt.Errorf("%w: unknown extractor %q", ErrBadOptions, ro.Extractor)
	}
	switch ro.CycleFilter {
	case "":
	case "efficient":
		o.CycleFilter = tensat.FilterEfficient
	case "vanilla":
		o.CycleFilter = tensat.FilterVanilla
	case "none":
		o.CycleFilter = tensat.FilterNone
	default:
		return o, fmt.Errorf("%w: unknown cycle filter %q", ErrBadOptions, ro.CycleFilter)
	}
	if ro.TopoInt {
		o.TopoInt = true
	}
	if ro.ExploreTimeoutMS > 0 {
		o.ExploreTimeout = time.Duration(ro.ExploreTimeoutMS) * time.Millisecond
	}
	if ro.ILPTimeoutMS > 0 {
		o.ILPTimeout = time.Duration(ro.ILPTimeoutMS) * time.Millisecond
	}
	if ro.Workers < 0 {
		return o, fmt.Errorf("%w: negative workers %d", ErrBadOptions, ro.Workers)
	}
	if ro.Workers > 0 {
		o.Workers = ro.Workers
	}
	if !backend.Valid(ro.ILPSolver) {
		return o, fmt.Errorf("%w: unknown ilp_solver %q (known: %s)",
			ErrBadOptions, ro.ILPSolver, strings.Join(backend.Names(), ", "))
	}
	if ro.ILPSolver != "" {
		o.ILPSolver = ro.ILPSolver
	}
	return o, nil
}

// profile is a resolved optimization profile: the effective display
// names and the content hashes that join the cache key. Two requests
// share cache entries exactly when their profiles hash alike —
// whatever the names say — so a reloaded-but-unchanged profile keeps
// its entries and renamed-identical devices share them.
type profile struct {
	RuleSet, CostModel         string
	ruleSetHash, costModelHash string
}

// label is the per-profile stats key and job-listing tag.
func (p profile) label() string { return p.RuleSet + "/" + p.CostModel }

// resolveProfile validates o's profile names against the registry and
// fills in defaults: an unnamed half falls back to the built-in
// profile, or to the opaque "custom" label when the service was
// configured with a programmatic Rules/CostModel object.
func (s *Service) resolveProfile(o *tensat.Options) (profile, error) {
	var p profile
	switch {
	case o.Rules != nil:
		p.RuleSet = "custom"
	case o.RuleSet == "":
		o.RuleSet = tensat.DefaultRuleSetName
		fallthrough
	default:
		info, ok := s.cfg.Registry.RuleSetInfo(o.RuleSet)
		if !ok {
			return p, fmt.Errorf("%w: unknown ruleset %q (known: %s)",
				ErrBadOptions, o.RuleSet, strings.Join(s.cfg.Registry.RuleSetNames(), ", "))
		}
		p.RuleSet, p.ruleSetHash = info.Name, info.Hash
	}
	switch {
	case o.CostModel != nil:
		p.CostModel = "custom"
	case o.CostModelName == "":
		o.CostModelName = tensat.DefaultCostModelName
		fallthrough
	default:
		info, ok := s.cfg.Registry.CostModelInfo(o.CostModelName)
		if !ok {
			return p, fmt.Errorf("%w: unknown cost_model %q (known: %s)",
				ErrBadOptions, o.CostModelName, strings.Join(s.cfg.Registry.CostModelNames(), ", "))
		}
		p.CostModel, p.costModelHash = info.Name, info.Hash
	}
	return p, nil
}

// keyFromParts derives the cache/singleflight key from its components
// — graph fingerprint, effective scalar knobs, and the profile content
// hashes — folded through fingerprint.Key so no component can collide
// into another. It is the single key derivation: requests key their
// own parts through it, and the peer PUT handler re-derives the key
// from a pushed record's embedded parts to verify the record actually
// answers the key it was pushed under.
func keyFromParts(p cachestore.KeyParts) string {
	return fingerprint.Key(p.Fingerprint, p.Options, p.RuleSetHash, p.CostModelHash)
}

// optionsKey canonically encodes the *effective* (post-apply) knobs
// that influence the result, so requests that resolve to the same
// configuration — e.g. one inheriting the server default and one
// spelling it out — share a cache entry and a singleflight run.
func optionsKey(o tensat.Options) string {
	var b strings.Builder
	// Workers joins the key only when an exploration time budget is
	// set, so without one requests differing only in workers share one
	// cache entry and one run. It no longer changes a run; the key
	// keeps it until the option is removed.
	workersKey := 0
	if o.ExploreTimeout > 0 {
		workersKey = o.Workers
	}
	for _, v := range []int{o.NodeLimit, o.IterLimit, o.KMulti,
		int(o.Extractor), int(o.CycleFilter), workersKey} {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('|')
	}
	if o.TopoInt {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
	// Timeouts influence how much optimization a result got, so two
	// requests differing only in budget are distinct cache entries.
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(int64(o.ExploreTimeout), 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(int64(o.ILPTimeout), 10))
	// The ILP backend joins the key: all backends agree on the optimal
	// cost, but under a time budget their anytime incumbents (and the
	// particular optimum among cost ties) legitimately differ.
	b.WriteByte('|')
	b.WriteString(o.ILPSolver)
	return b.String()
}

// cachedResult is a finished optimization plus the tensor vocabulary
// of the graph that produced it (canonical first-occurrence order), so
// later structurally identical requests can receive the result spelled
// in their own input/weight names, plus the key components the record
// is encoded with so persisted and pushed copies stay self-describing.
type cachedResult struct {
	res     *tensat.Result
	tensors []string
	parts   cachestore.KeyParts

	// reply is the /result body of every memory hit in the entry's own
	// tensor names, encoded by the first (nil if it does not encode).
	// Like res, it is not counted by CacheMaxBytes.
	replyOnce sync.Once
	reply     []byte
}

// inVocabulary translates the cached result into the requester's
// tensor names. Identical vocabularies share the original result.
func (cr *cachedResult) inVocabulary(names []string) (*tensat.Result, error) {
	if len(names) != len(cr.tensors) {
		// Equal fingerprints imply equal tensor counts; never expected.
		return cr.res, nil
	}
	mapping := make(map[string]string)
	for i, from := range cr.tensors {
		if from != names[i] {
			mapping[from] = names[i]
		}
	}
	if len(mapping) == 0 {
		return cr.res, nil
	}
	renamed, err := tensor.RenameTensors(cr.res.Graph, mapping)
	if err != nil {
		return nil, fmt.Errorf("serve: translating cached result: %w", err)
	}
	out := *cr.res
	out.Graph = renamed
	return &out, nil
}

// shedKeySuffix separates a degraded (greedy-only) run's singleflight
// key from the full-quality key: a shed run must neither join nor be
// joined by a full-quality flight, and its key never reaches the cache
// or the peer surface.
const shedKeySuffix = "|shed"

// RateLimitError reports an admission-control rejection: the tenant's
// quota and shed headroom are both exhausted. Transports answer 429
// with RetryAfter in the Retry-After header.
type RateLimitError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("serve: tenant %q over quota (retry in %s)", e.Tenant, e.RetryAfter)
}

// Response is one answered optimization request.
type Response struct {
	// Result is the optimization outcome (shared, treat as read-only).
	Result *tensat.Result
	// Fingerprint is the canonical content hash of the request graph.
	Fingerprint string
	// Cached is true when the answer came from a cache tier; Tier then
	// names which one (TierMemory, TierDisk, TierPeer). Deduped is true
	// when this request joined an in-flight identical run instead of
	// starting its own.
	Cached  bool
	Deduped bool
	Tier    string
	// Degraded marks a load-shed answer: the tenant was over quota, so
	// the run used greedy-only extraction. Degraded results are never
	// cached as the key's answer.
	Degraded bool

	// reply is the /result body when a cache entry shares one.
	reply []byte
}

// request is one prepared optimization request: effective options,
// resolved profile, graph identity, and the derived cache key.
type request struct {
	opts  tensat.Options
	prof  profile
	fp    string
	names []string
	key   string
}

// keyParts is the request's cache identity broken into the components
// keyFromParts folds together; encoded records embed them so any
// receiver can re-derive and verify the key.
func (q request) keyParts() cachestore.KeyParts {
	return cachestore.KeyParts{
		Fingerprint:   q.fp,
		Options:       optionsKey(q.opts),
		RuleSetHash:   q.prof.ruleSetHash,
		CostModelHash: q.prof.costModelHash,
	}
}

// prepare validates ro against the service configuration and computes
// the request's cache identity — the shared head of the synchronous
// and asynchronous submission paths.
func (s *Service) prepare(g *tensat.Graph, ro RequestOptions) (request, error) {
	var q request
	var err error
	if q.opts, err = ro.apply(s.cfg.Base); err != nil {
		return q, err
	}
	if q.prof, err = s.resolveProfile(&q.opts); err != nil {
		return q, err
	}
	if q.fp, err = fingerprint.GraphHex(g); err != nil {
		return q, err
	}
	if q.names, err = fingerprint.Tensors(g); err != nil {
		return q, err
	}
	q.key = keyFromParts(q.keyParts())
	return q, nil
}

// admission is the outcome of tenant admission control for one
// request: the worker-queue priority, whether the request must execute
// degraded, and — when tenant is non-empty — the quota slot it holds
// until release.
type admission struct {
	tenant   string
	prio     int
	degraded bool
}

// admit runs tenant admission control; on Reject it returns a
// *RateLimitError. The returned admission must be passed to release
// when the request finishes. tn == nil bypasses admission entirely.
func (s *Service) admit(tn *tenant.Tenant) (admission, error) {
	if tn == nil || s.cfg.Tenants == nil {
		return admission{}, nil
	}
	s.metrics.tenantRequests.With(tn.Name).Inc()
	d, retry := s.cfg.Tenants.Acquire(tn.Name)
	switch d {
	case tenant.Admit:
		return admission{tenant: tn.Name, prio: tn.Priority}, nil
	case tenant.Degrade:
		if tn.Priority >= s.cfg.NoShedPriority {
			// High-priority work is never silently weakened; surface the
			// saturation instead.
			s.cfg.Tenants.Release(tn.Name, true)
			s.metrics.tenantRejected.With(tn.Name).Inc()
			return admission{}, &RateLimitError{Tenant: tn.Name, RetryAfter: time.Second}
		}
		return admission{tenant: tn.Name, prio: tn.Priority, degraded: true}, nil
	default:
		s.metrics.tenantRejected.With(tn.Name).Inc()
		return admission{}, &RateLimitError{Tenant: tn.Name, RetryAfter: retry}
	}
}

// release returns the quota slot adm holds, if any.
func (s *Service) release(adm admission) {
	if adm.tenant != "" {
		s.cfg.Tenants.Release(adm.tenant, adm.degraded)
	}
}

// Optimize answers one request: cache lookup, then singleflight join
// or a fresh run on the worker pool. Canceling ctx returns promptly
// with ctx.Err() — the shared run keeps going while any other request
// still wants it, and an abandoned or failed run is never cached.
func (s *Service) Optimize(ctx context.Context, g *tensat.Graph, ro RequestOptions) (*Response, error) {
	return s.OptimizeAs(ctx, g, ro, nil)
}

// OptimizeAs is Optimize under a tenant's admission control: the
// tenant's quota decides whether the request runs at full quality,
// degrades to greedy-only extraction, or is rejected with a
// *RateLimitError. tn == nil bypasses admission entirely.
func (s *Service) OptimizeAs(ctx context.Context, g *tensat.Graph, ro RequestOptions, tn *tenant.Tenant) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.drain.active() {
		return nil, ErrDraining
	}
	q, err := s.prepare(g, ro)
	if err != nil {
		return nil, err
	}
	s.metrics.requests.With(q.prof.RuleSet, q.prof.CostModel).Inc()
	adm, err := s.admit(tn)
	if err != nil {
		return nil, err
	}
	defer s.release(adm)
	return s.answer(ctx, g, q, adm, nil)
}

// answer is the request tail both surfaces share: cache tiers, then a
// singleflight join or a fresh run on the worker pool, then the wait.
// progress, when non-nil, receives the shared run's live snapshots in
// order (a job pumps them into its own log). When ctx ends first the
// caller's interest is dropped: the shared run keeps going while any
// other request still wants it; if this was the last, the flight
// cancels the work, the worker slot frees up, and run never caches the
// partial result.
func (s *Service) answer(ctx context.Context, g *tensat.Graph, q request, adm admission, progress func(tensat.Progress)) (*Response, error) {
	// A cached full-quality answer rescues even an over-quota request:
	// shedding only applies to work, and a cache hit is free.
	if entry, tier, ok := s.lookup(ctx, q.key); ok {
		res, err := entry.inVocabulary(q.names)
		if err != nil {
			return nil, err
		}
		resp := &Response{Result: res, Fingerprint: q.fp, Cached: true, Tier: tier}
		if tier == TierMemory && res == entry.res {
			entry.replyOnce.Do(func() { entry.reply, _ = encodeReply(resp) })
			resp.reply = entry.reply
		}
		return resp, nil
	}
	s.metrics.cacheMisses.Inc()

	runKey, runOpts := q.key, q.opts
	if adm.degraded {
		runKey += shedKeySuffix
		runOpts.Extractor = tensat.ExtractGreedy
		s.metrics.shed.Inc()
		s.log.Info("load shedding request", "tenant", adm.tenant, "fingerprint", q.fp)
	}
	c, leader := s.flight.join(runKey)
	if leader {
		c.tensors = q.names // published to followers by close(c.done)
		go s.run(runKey, q.keyParts(), c, g, runOpts, adm.prio, adm.degraded)
	} else {
		s.metrics.cacheDedup.Inc()
	}

	// Without a sink, notify stays nil and its select arm never fires.
	idx := 0
	var notify <-chan struct{}
	pump := func() {
		if progress == nil {
			return
		}
		var entries []tensat.Progress
		entries, idx, notify = c.progress.since(idx)
		for _, p := range entries {
			progress(p)
		}
	}
	pump()
	for {
		select {
		case <-c.done:
			pump() // drain entries published before the close
			if c.err != nil {
				return nil, c.err
			}
			// A follower's graph may spell the tensors differently than the
			// leader's; answer in the follower's vocabulary.
			res, err := (&cachedResult{res: c.res, tensors: c.tensors}).inVocabulary(q.names)
			if err != nil {
				return nil, err
			}
			return &Response{Result: res, Fingerprint: q.fp, Deduped: !leader, Degraded: adm.degraded}, nil
		case <-ctx.Done():
			s.flight.leave(runKey, c)
			s.metrics.canceled.Inc()
			return nil, ctx.Err()
		case <-notify:
			pump()
		}
	}
}

// run executes one deduplicated optimization on the worker pool under
// the flight call's reference-counted context. parts is the request's
// cache identity, embedded in the persisted/pushed record.
func (s *Service) run(key string, parts cachestore.KeyParts, c *flightCall, g *tensat.Graph, opts tensat.Options, prio int, degraded bool) {
	// Panic isolation, outer ring: the optimizer already recovers
	// pipeline panics into *tensat.PanicError, so anything reaching this
	// recover escaped from the serving code around the run (caching,
	// stats). Either way the flight must be finished — waiters would
	// hang forever otherwise — and the daemon must survive.
	finished := false
	defer func() {
		if r := recover(); r != nil && !finished {
			perr := &tensat.PanicError{Value: r, Stack: debug.Stack()}
			s.metrics.panics.With("worker").Inc()
			s.log.Error("panic in optimization worker", "key", key,
				"panic", fmt.Sprint(r), "stack", string(perr.Stack))
			s.flight.finish(key, c, nil, perr)
		}
	}()
	// Live progress flows into the flight's shared log, where every
	// waiter — async jobs in particular — can pump it out. Neither the
	// sink nor the trace switch is part of the cache key (see
	// optionsKey) so setting them here, after keying, is safe; the
	// recorded span tree rides the Result into the cache, where every
	// hit and deduplicated sibling shares the cold run's (immutable)
	// trace.
	opts.Progress = c.progress.publish
	opts.Trace = true
	// Acquire a worker slot by priority; bail out if every interested
	// request is gone before one frees up.
	if err := s.queue.acquire(c.ctx, prio); err != nil {
		finished = true
		s.flight.finish(key, c, nil, err)
		return
	}
	defer s.queue.release()

	s.metrics.inFlight.Inc()
	start := time.Now()
	res, err := s.optimize(c.ctx, g, opts)
	s.metrics.endWork(time.Since(start), err)
	var perr *tensat.PanicError
	if errors.As(err, &perr) {
		// The pipeline panicked inside the optimizer; Submit's recover
		// converted it to an error, so the flight finishes normally and
		// every waiter gets internal_error instead of a dead daemon.
		s.metrics.panics.With("optimizer").Inc()
		s.log.Error("optimization pipeline panicked", "key", key,
			"panic", fmt.Sprint(perr.Value), "stack", string(perr.Stack))
	}
	if err == nil && res != nil {
		s.metrics.observeRun(res, opts)
	}
	// A canceled run is not a complete result: OptimizeContext normally
	// surfaces cancellation as an error, but if a result does carry the
	// Canceled mark (exploration aborted mid-way), it must never be
	// cached as the answer for this key. A run truncated with no
	// explicit budget hit the runner's implicit safety-net timeout;
	// how far it got depends on the worker count, which this key
	// deliberately omits for budget-free requests — don't cache it.
	// A degraded (load-shed) run is never cached or pushed at all: its
	// greedy-only answer must not masquerade as the key's optimal.
	if err == nil && !degraded && !res.Canceled && !(res.Truncated && opts.ExploreTimeout == 0) {
		s.cacheResult(key, &cachedResult{res: res, tensors: c.tensors, parts: parts})
	}
	finished = true
	s.flight.finish(key, c, res, err)
}

// Workers reports the configured worker-pool bound.
func (s *Service) Workers() int { return s.cfg.Workers }

// Registry returns the profile registry this service resolves request
// "ruleset"/"cost_model" names against (the discovery endpoints list
// its contents).
func (s *Service) Registry() *tensat.Registry { return s.cfg.Registry }
