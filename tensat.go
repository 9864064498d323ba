// Package tensat is a Go implementation of TENSAT (Yang et al., MLSys
// 2021): tensor computation graph superoptimization via equality
// saturation. Instead of applying graph substitutions sequentially
// (and suffering the phase-ordering problem), TENSAT applies all
// rewrites simultaneously into an e-graph and extracts the globally
// cheapest equivalent graph with an ILP.
//
// Quick start:
//
//	b := tensat.NewBuilder()
//	x := b.Input("x", 64, 256)
//	w1 := b.Weight("w1", 256, 256)
//	w2 := b.Weight("w2", 256, 256)
//	g := b.MustFinish(b.Matmul(tensat.ActNone, x, w1), b.Matmul(tensat.ActNone, x, w2))
//	res, err := tensat.Optimize(g, tensat.DefaultOptions())
//	// res.Graph now computes both outputs with one merged matmul.
//
// The root package re-exports the tensor IR (see the tensor aliases
// below) and drives the internal packages: internal/egraph (the
// e-graph substrate), internal/rewrite (exploration with multi-pattern
// rewrites and cycle filtering), internal/rules (the TASO-style rule
// set), internal/extract and internal/ilp (greedy and ILP extraction),
// and internal/cost (the simulated device cost model).
//
// # Jobs and live progress
//
// Optimization runs are long (the paper budgets the ILP a full hour),
// so the primary API is asynchronous: an Optimizer compiles the rule
// set and cost model once and is reused for any number of jobs, and
// Submit returns a Job handle immediately:
//
//	o := tensat.NewOptimizer()
//	job, err := o.Submit(ctx, g, tensat.DefaultOptions())
//	// ... job.Progress() for live snapshots, job.Cancel() to abort ...
//	res, err := job.Result() // blocks until done
//
// Job.Progress() snapshots the running pipeline — phase, exploration
// iteration, e-graph sizes, the ILP incumbent cost, elapsed time —
// and Options.Progress registers a push sink receiving every update.
// Optimize and OptimizeContext remain as synchronous one-shot shims
// over this machinery.
//
// # Optimization profiles
//
// The pipeline is parameterized by its rewrite rule set and its device
// cost model. Registry makes both first-class, content-addressed
// resources: built-in profiles (rule sets "taso-default" and
// "taso-single"; devices "t4", "a100", "cpu") are registered at init,
// and more load at runtime from .rules files (one "name: lhs => rhs"
// or "lhs <=> rhs" per line) and JSON device specs (DeviceSpec: peak
// FLOP/s, memory bandwidth, per-op overrides). Options.RuleSet and
// Options.CostModelName select profiles by name per job; every
// profile carries a content hash (rule names + pattern s-exprs;
// device parameters) that the serving layer folds into its cache key,
// so identical graphs optimized under different profiles never share
// a cache entry while a reloaded-but-unchanged profile keeps its
// entries.
//
// # Optimization as a service
//
// The repository also ships the pipeline as a service.
// internal/fingerprint canonically content-hashes graphs (structurally
// identical graphs map to one SHA-256 key regardless of node insertion
// order or input names); internal/serve wraps the pipeline in a
// concurrent service with an LRU result cache keyed by
// fingerprint+options, singleflight deduplication of in-flight
// identical requests, a bounded worker pool, a TTL-bounded job store,
// and latency/hit-rate statistics; and cmd/tensatd exposes it over
// HTTP+JSON:
//
//	POST   /v1/jobs             — submit a job (202 + id)
//	GET    /v1/jobs             — list tracked jobs (status, age, profile)
//	GET    /v1/jobs/{id}        — status + live progress
//	GET    /v1/jobs/{id}/result — the result once done
//	DELETE /v1/jobs/{id}        — cancel
//	GET    /v1/jobs/{id}/events — progress as server-sent events
//	GET    /v1/rulesets         — named rule sets + content hashes
//	GET    /v1/costmodels       — named cost models + content hashes
//	GET    /v1/version          — build/runtime identification
//	GET    /v1/stats            — cache, latency, job and profile counters
//	GET    /v1/healthz          — liveness
//
// Graphs travel in the textual wire format of Graph.MarshalText
// (S-expressions with let-bindings for shared subgraphs; see
// internal/tensor/serialize.go). Cancellation and deadlines propagate
// from the server down through exploration and extraction via the job
// context.
package tensat

import (
	"context"
	"io"
	"time"

	"tensat/internal/cost"
	"tensat/internal/obs"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

// Re-exported tensor IR types, so library users only import tensat.
type (
	// Graph is a single-rooted tensor computation DAG.
	Graph = tensor.Graph
	// Node is a node of a tensor graph.
	Node = tensor.Node
	// Builder constructs shape-checked tensor graphs.
	Builder = tensor.Builder
	// Shape is a tensor shape.
	Shape = tensor.Shape
	// CostModel prices a single operator application.
	CostModel = cost.Model
	// Rule is a rewrite rule (single- or multi-pattern).
	Rule = rewrite.Rule
)

// Activation and padding modes for Builder calls.
const (
	ActNone    = tensor.ActNone
	ActSigmoid = tensor.ActSigmoid
	ActRelu    = tensor.ActRelu
	ActTanh    = tensor.ActTanh
	PadSame    = tensor.PadSame
	PadValid   = tensor.PadValid
)

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return tensor.NewBuilder() }

// DefaultCostModel returns the simulated T4 device model.
func DefaultCostModel() CostModel { return cost.NewT4() }

// RuntimeModel wraps a cost model with the deterministic measurement
// deviations used as ground-truth "graph runtime" in the experiments.
func RuntimeModel(base CostModel) CostModel { return cost.NewRuntime(base) }

// DefaultRules returns the full TASO-style rule set (single- and
// multi-pattern).
func DefaultRules() []*Rule { return rules.Default() }

// NewRule builds a single-pattern rewrite rule from S-expression
// patterns, e.g. NewRule("fuse", "(relu (matmul 0 ?x ?y))", "(matmul 2 ?x ?y)").
func NewRule(name, source, target string) (*Rule, error) {
	return rewrite.NewRule(name, source, target)
}

// NewMultiRule builds a multi-pattern rule; sources and targets are
// whitespace-separated pattern lists with pairwise matched outputs.
func NewMultiRule(name, sources, targets string) (*Rule, error) {
	return rewrite.NewMultiRule(name, sources, targets)
}

// Extractor selects the extraction algorithm (§5.1).
type Extractor int

const (
	// ExtractILP uses the ILP formulation (the paper's full approach).
	ExtractILP Extractor = iota
	// ExtractGreedy uses per-class greedy selection.
	ExtractGreedy
)

// CycleFilter selects the cycle handling strategy (§5.2).
type CycleFilter int

const (
	// FilterEfficient is Algorithm 2 (default; enables ILP without
	// cycle constraints).
	FilterEfficient CycleFilter = iota
	// FilterVanilla re-scans the e-graph before every substitution.
	FilterVanilla
	// FilterNone disables filtering; ILP extraction then uses the
	// topological-order cycle constraints.
	FilterNone
)

// Options configure Optimize. Zero values take the paper's defaults.
//
// Every exported field participates in serving-cache identity — it
// must be read by one of the key functions named below — unless it is
// explicitly exempted as pure observability. tensatlint's cachekey
// analyzer enforces this; see cmd/tensatlint.
//
//lint:cachekey keyfunc=tensat/internal/serve.optionsKey keyfunc=tensat/internal/serve.Service.resolveProfile
type Options struct {
	// Rules is the rewrite rule set; nil means DefaultRules.
	Rules []*Rule
	// CostModel prices operators; nil means DefaultCostModel.
	CostModel CostModel
	// RuleSet selects a named rule set from the optimizer's Registry
	// (e.g. "taso-default", "taso-single", or a loaded .rules profile).
	// It applies only when Rules is nil; "" means the default set. An
	// unknown name fails Submit with ErrUnknownProfile.
	RuleSet string
	// CostModelName selects a named cost model from the Registry (e.g.
	// "t4", "a100", "cpu", or a loaded device spec). It applies only
	// when CostModel is nil; "" means the optimizer's default device.
	CostModelName string
	// NodeLimit bounds the e-graph size (paper: 50000).
	NodeLimit int
	// IterLimit bounds exploration iterations (paper: 15).
	IterLimit int
	// KMulti is the number of iterations multi-pattern rules fire
	// (paper: 1; 2 for Inception-v3).
	KMulti int
	// ExploreTimeout bounds the exploration phase.
	ExploreTimeout time.Duration
	// Workers is not read: exploration searches each pattern on
	// demand, on the exploring goroutine. The serve layer still takes
	// it as the "workers" request option.
	//
	// Deprecated: it has no effect.
	Workers int
	// Extractor selects ILP or greedy extraction.
	Extractor Extractor
	// CycleFilter selects the exploration cycle strategy.
	CycleFilter CycleFilter
	// ILPTimeout bounds the ILP solver (paper: 1 hour).
	ILPTimeout time.Duration
	// ILPSolver selects the ILP backend: "" or "builtin" for the
	// parallel in-process branch-and-bound, "builtin-seq" for the
	// single-threaded search, "cbc" or "highs" to shell out to an
	// external MIP solver on PATH via MPS files. Unknown names fail
	// Submit; external names are accepted even when the binary is
	// absent (the job then fails with backend.ErrUnavailable).
	ILPSolver string
	// TopoInt uses integer topological variables when CycleFilter is
	// FilterNone (Table 5's "int" column).
	TopoInt bool
	// Progress, when non-nil, receives live snapshots from the running
	// pipeline: one per exploration iteration, one on the switch to
	// extraction, one per ILP incumbent improvement, and a terminal
	// snapshot. It is called serially from the job's goroutine, must
	// return quickly, and takes no part in option identity (a serving
	// cache must not key on it).
	//
	//lint:cachekey-exempt pure observability: snapshots never alter the result
	Progress func(Progress)
	// Trace, when true, records a structured phase-span trace of the
	// run — explore iterations with search/apply/rebuild children and
	// e-node/e-class deltas, extraction with ILP model/solve spans and
	// incumbent events — returned as Result.Trace. Like Progress it is
	// pure observability and takes no part in option identity.
	//
	//lint:cachekey-exempt pure observability: the trace rides along, the graph is identical
	Trace bool
}

// DefaultOptions mirrors the paper's experimental setup (§6.1).
func DefaultOptions() Options {
	return Options{
		NodeLimit:  50000,
		IterLimit:  15,
		KMulti:     1,
		ILPTimeout: time.Hour,
	}
}

// SearchStats reports what the e-matching search of exploration did,
// summed over iterations and the canonical patterns each iteration
// searched (a pattern that no reached rule reads is not searched).
// Scanned vs. Pruned shows the op-index win (classes visited vs.
// skipped because they lack a pattern's root operator); Dirty vs.
// Clean shows the incremental-search win (candidates re-searched
// because they changed since the pattern's previous list vs. answered
// from that list).
type SearchStats struct {
	// Time is the part of ExploreTime spent searching: freezing the
	// view, the dirty sets and the on-demand pattern scans.
	Time time.Duration
	// Scanned counts e-classes the pattern programs actually visited.
	Scanned int
	// Pruned counts e-classes skipped by the operator index.
	Pruned int
	// Dirty counts candidate classes re-searched incrementally; Clean
	// counts candidates answered from the previous iteration's matches.
	Dirty, Clean int
	// Matches counts the matches the search phase produced.
	Matches int
}

// ILPStats reports what the ILP extraction pipeline did: which backend
// solved the model, how much presolve shrank it first, and how the
// search went. Zero-valued for greedy extraction.
type ILPStats struct {
	// Solver is the backend that produced the solution ("builtin",
	// "builtin-seq", "cbc", "highs").
	Solver string
	// Workers is the number of search goroutines the builtin parallel
	// solver used (1 for sequential and external backends).
	Workers int
	// Explored counts branch-and-bound nodes expanded (0 for external
	// backends, which do not report it).
	Explored int64
	// Incumbents counts incumbent improvements during the solve.
	Incumbents int
	// PresolveFixed, PresolveDropped and PresolveRemoved report the
	// model reduction: variables fixed into the solution, candidate
	// nodes eliminated, and cycle-constraint rows dropped as vacuous.
	PresolveFixed, PresolveDropped, PresolveRemoved int
	// PresolveRatio is the fraction of candidate nodes presolve
	// eliminated (0 when presolve was skipped).
	PresolveRatio float64
}

// Result reports an optimization run.
type Result struct {
	// Graph is the optimized graph.
	Graph *Graph
	// OrigCost and OptCost are graph costs under the optimizer's model.
	OrigCost, OptCost float64
	// SpeedupPercent is (OrigCost/OptCost - 1) * 100.
	SpeedupPercent float64
	// ExploreTime and ExtractTime split the optimization time
	// (Table 3's breakdown).
	ExploreTime, ExtractTime time.Duration
	// ApplyTime and RebuildTime break ExploreTime down further: the
	// rule-application loops and the congruence rebuilds (incl. cycle
	// post-processing), summed over iterations. Search.Time is the
	// third component; the remainder is per-iteration bookkeeping such
	// as the descendants snapshot for cycle pre-filtering.
	ApplyTime, RebuildTime time.Duration
	// ENodes and EClasses are final e-graph sizes; Iterations counts
	// exploration rounds; Saturated is true only when a full iteration
	// completed without changing the e-graph — a canceled or timed-out
	// exploration never reports Saturated.
	ENodes, EClasses, Iterations int
	Saturated                    bool
	// Truncated is true when exploration stopped because its time
	// budget expired or the caller canceled, so the e-graph (and hence
	// the result) covers only part of the search space. Node/iteration
	// limits are the configured operating mode and do not count.
	Truncated bool
	// Canceled is true when exploration was cut short by context
	// cancellation; such a result is partial and callers (e.g. a
	// serving cache) must not treat it as the answer for the request.
	Canceled bool
	// FilteredNodes counts e-nodes removed by cycle filtering.
	FilteredNodes int
	// ILPOptimal is true when ILP extraction proved optimality.
	ILPOptimal bool
	// ILP details the ILP extraction run (backend, presolve reduction,
	// search counters); zero-valued for greedy extraction.
	ILP ILPStats
	// Search breaks down the e-matching search phase (op-index pruning,
	// incremental re-search, match counts).
	Search SearchStats
	// Trace is the run's phase-span tree when Options.Trace was set
	// (nil otherwise). It is immutable once returned and safe to share;
	// WriteChromeTrace exports it for Perfetto.
	Trace *TraceSpan
}

// TraceSpan is one timed phase of a run: name, start offset, duration,
// integer attributes, point events, and child spans. Result.Trace is
// the root of a span tree.
type TraceSpan = obs.Span

// TraceEvent is a point-in-time marker inside a TraceSpan, e.g. an ILP
// incumbent improvement carrying the new cost.
type TraceEvent = obs.Event

// WriteChromeTrace renders a span tree in the Chrome trace-event JSON
// format, which Perfetto (ui.perfetto.dev) and chrome://tracing open
// directly. A nil root writes an empty, still-valid trace.
func WriteChromeTrace(w io.Writer, root *TraceSpan) error {
	return obs.WriteChromeTrace(w, root)
}

// Optimize runs the full TENSAT pipeline on g: exploration by equality
// saturation, then extraction. It is a one-shot shim over Optimizer;
// callers optimizing many graphs should hold a single Optimizer so the
// rule set is compiled once.
func Optimize(g *Graph, opt Options) (*Result, error) {
	return OptimizeContext(context.Background(), g, opt)
}

// OptimizeContext is Optimize with cancellation and deadline
// propagation: ctx reaches the exploration runner, the greedy
// extractor, and the ILP branch-and-bound, so server-side timeouts and
// Options timeouts share one mechanism. Options.ExploreTimeout bounds
// only exploration (a soft stop: the partial e-graph is still
// extracted, as in the paper's anytime setup), while canceling ctx
// aborts the whole pipeline with ctx.Err().
//
// Like Optimize, it is a synchronous shim: it submits one job to a
// fresh Optimizer and waits for the result.
func OptimizeContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	job, err := NewOptimizer().Submit(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	return job.Result()
}

// GraphCost sums the model cost over the distinct nodes of g.
func GraphCost(m CostModel, g *Graph) float64 { return cost.GraphCost(m, g) }
