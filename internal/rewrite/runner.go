package rewrite

import (
	"context"
	"time"

	"tensat/internal/egraph"
	"tensat/internal/fault"
	"tensat/internal/obs"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// FilterMode selects the cycle-filtering strategy of §5.2.
type FilterMode int

const (
	// FilterEfficient is Algorithm 2: a descendants map built once per
	// iteration for pre-filtering, plus a DFS post-processing pass.
	FilterEfficient FilterMode = iota
	// FilterVanilla recomputes the descendants map before every single
	// substitution (O(n_m * N) per iteration).
	FilterVanilla
	// FilterNone performs no cycle filtering; extraction must then use
	// the ILP formulation with cycle constraints (§5.1).
	FilterNone
)

// String names the mode.
func (m FilterMode) String() string {
	switch m {
	case FilterEfficient:
		return "efficient"
	case FilterVanilla:
		return "vanilla"
	default:
		return "none"
	}
}

// Limits bound the exploration phase (§6.1: N_max = 50000, k_max = 15,
// k_multi = 1 by default).
type Limits struct {
	MaxNodes int           // stop when the e-graph holds this many e-nodes
	MaxIters int           // maximum exploration iterations
	KMulti   int           // iterations during which multi-pattern rules fire
	Timeout  time.Duration // wall-clock bound for the exploration phase
}

// DefaultLimits mirrors the paper's experimental setup.
func DefaultLimits() Limits {
	return Limits{MaxNodes: 50000, MaxIters: 15, KMulti: 1, Timeout: time.Hour}
}

// Stats reports what the exploration phase did. Each match lands in
// exactly one of Redundant, Applied, SkippedShape and SkippedCycle, so
// the four sum to Matches. A match is redundant when every node its
// targets name is already present and each target's class is the
// matched one: it is not checked or applied, since applying it would
// add nothing and union only equal classes.
type Stats struct {
	Iterations    int
	Saturated     bool
	HitNodeLimit  bool
	HitIterLimit  bool
	HitTimeout    bool
	Canceled      bool // the caller's context was canceled mid-exploration
	Matches       int  // candidate substitutions found
	Redundant     int  // substitutions whose every target was already in its matched class
	Applied       int  // substitutions applied: each changed the e-graph
	SkippedShape  int  // substitutions rejected by shape checking or the rule's Cond
	SkippedCycle  int  // substitutions rejected by the pre-filter
	FilteredNodes int  // e-nodes put on the filter list by post-processing
	ENodes        int  // final e-node count
	EClasses      int  // final e-class count
	ExploreTime   time.Duration
	// ApplyTime and RebuildTime split out the remainder of ExploreTime:
	// the rule-application loop (redundancy probes, shape checks, cycle
	// pre-filtering, instantiation and unions, but not the pattern scans
	// it runs) and the congruence rebuild plus cycle post-processing,
	// each summed over iterations.
	ApplyTime   time.Duration
	RebuildTime time.Duration
	// SearchTime is the part of ExploreTime spent in e-matching search,
	// summed over iterations: freezing the view and computing the dirty
	// sets, then the pattern scans the rule loop runs on demand before
	// a rule's first use.
	SearchTime time.Duration
	// Search work accounting, summed over iterations and the canonical
	// patterns each iteration searched: a pattern that no rule the
	// iteration reached reads is not searched. For each (pattern,
	// iteration) pair searched, the candidate classes (those containing
	// the pattern's root operator) split into scanned vs. answered from
	// the pattern's previous list, while every class without the root
	// op is pruned without a visit:
	//
	//	SearchScanned  — classes the pattern VM actually visited
	//	SearchPruned   — classes skipped by the op index
	//	SearchClean    — candidate classes answered from the pattern's
	//	                 previous match list
	//	SearchDirty    — candidate classes re-searched because they were
	//	                 touched since that list was computed (subset of
	//	                 SearchScanned)
	//	SearchMatches  — matches in the lists searched
	SearchScanned int
	SearchPruned  int
	SearchClean   int
	SearchDirty   int
	SearchMatches int
}

// Explored is the result of the exploration phase: the saturated (or
// limit-bounded) e-graph, its root class, and the cycle filter list.
type Explored struct {
	G        *egraph.EGraph
	Root     egraph.ClassID
	Filtered FilterSet
	Stats    Stats
	// IngestStamp is the insertion-counter value right after the input
	// graph was loaded: e-nodes with stamps at or below it form the
	// original graph, which extraction uses as a warm start.
	IngestStamp int64
}

// Runner drives the exploration phase over a rule set.
type Runner struct {
	Rules  []*Rule
	Filter FilterMode
	Limits Limits
	// Compiled, when non-nil and compiled from exactly Rules, supplies
	// the precompiled pattern programs (CompileRules) — the
	// compile-at-registration path used by tensat.Registry. When nil or
	// out of date the runner compiles Rules itself at explore start.
	Compiled *CompiledRules
	// Workers is not read: each pattern is searched on the exploring
	// goroutine just before the first rule that reads it.
	//
	// Deprecated: it has no effect and is kept for callers that set it.
	Workers int
	// Progress, when non-nil, is called from the exploring goroutine
	// once before the first iteration (with iteration 0 and the
	// freshly ingested e-graph's sizes) and again after every
	// completed iteration. It must return quickly and must not touch
	// the e-graph.
	Progress func(iteration, enodes, eclasses int)
	// Trace, when non-nil, receives phase spans: an "explore" span
	// containing one "iteration" span per iteration — each with
	// "descendants", "search" (the freeze and dirty sets), "apply" (the
	// rule loop, with the classes its on-demand scans visited, the
	// matches they listed, and how many matches it considered, found
	// redundant and applied) and "rebuild" children, annotated with
	// e-node / e-class deltas — and a closing "filter" span for the
	// final cycle pass. A nil Trace records nothing and costs a nil
	// check per phase boundary.
	Trace *obs.Trace
}

// NewRunner builds a Runner with default limits and efficient filtering.
func NewRunner(rules []*Rule) *Runner {
	return &Runner{Rules: rules, Filter: FilterEfficient, Limits: DefaultLimits()}
}

// Run explores the e-graph of t until saturation or limits.
func (r *Runner) Run(t *tensor.Graph) (*Explored, error) {
	return r.RunContext(context.Background(), t)
}

// RunContext is Run with cancellation: when ctx is done, exploration
// stops at the next check point exactly as if Limits.Timeout had
// expired (Stats.Canceled is set), and the partial e-graph is returned.
// Deciding whether a canceled request should still be extracted is the
// caller's business (tensat.OptimizeContext aborts; an anytime caller
// may extract what it has).
func (r *Runner) RunContext(ctx context.Context, t *tensor.Graph) (*Explored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, root, _, err := Ingest(t)
	if err != nil {
		return nil, err
	}
	ex := &Explored{G: g, Root: root, IngestStamp: g.Stamp()}
	r.explore(ex, ctx.Done())
	return ex, nil
}

func (r *Runner) explore(ex *Explored, done <-chan struct{}) {
	start := time.Now()
	r.Trace.Begin("explore")
	g := ex.G
	lim := r.Limits
	// MaxNodes/Timeout zero means "default"; MaxIters 0 is honored as-is
	// (an explicit "do not explore"), matching the k_multi=0 baseline.
	if lim.MaxNodes == 0 {
		lim.MaxNodes = 50000
	}
	if lim.Timeout == 0 {
		lim.Timeout = time.Hour
	}

	// Resolve the compiled rule set: the precompiled programs from rule
	// registration when available, a fresh compilation otherwise
	// (Algorithm 1, lines 1-8, plus pattern-program compilation).
	cr := r.Compiled
	if !cr.compiledFor(r.Rules) {
		cr = CompileRules(r.Rules)
	}
	st := newSearchState(cr)
	cycles := new(cycleFilter) // this run's Algorithm 2 scratch, descendants slab included

	if r.Progress != nil {
		r.Progress(0, g.NodeCount(), g.ClassCount())
	}
	deadline := start.Add(lim.Timeout)
	for iter := 0; ; iter++ {
		if iter >= lim.MaxIters {
			ex.Stats.HitIterLimit = true
			break
		}
		if g.NodeCount() >= lim.MaxNodes {
			ex.Stats.HitNodeLimit = true
			break
		}
		if stopped(done) {
			ex.Stats.Canceled = true
			break
		}
		if time.Now().After(deadline) {
			ex.Stats.HitTimeout = true
			break
		}
		useMulti := iter < lim.KMulti
		changed, interrupted := r.iterate(ex, cr, st, cycles, useMulti, lim, deadline, done)
		ex.Stats.Iterations++
		if r.Progress != nil {
			r.Progress(ex.Stats.Iterations, g.NodeCount(), g.ClassCount())
		}
		// Saturation means a full iteration ran to completion without
		// changing the e-graph. An iteration cut short by cancellation,
		// timeout, or the node limit proves nothing — a canceled or
		// timed-out run must never report Saturated; loop back so the
		// checks above classify the stop reason instead.
		if !changed && !interrupted && !stopped(done) && !time.Now().After(deadline) {
			ex.Stats.Saturated = true
			break
		}
	}

	// Guarantee the acyclic invariant before extraction. This final
	// pass is deliberately uncancelable (nil done): extraction relies
	// on acyclicity even when exploration was cut short.
	if r.Filter != FilterNone {
		r.Trace.Begin("filter")
		ex.Stats.FilteredNodes += cycles.filterCycles(g, &ex.Filtered, nil)
		r.Trace.End()
	}
	ex.Stats.ENodes = g.NodeCount()
	ex.Stats.EClasses = g.ClassCount()
	ex.Stats.ExploreTime = time.Since(start)
	r.Trace.Attr("iterations", int64(ex.Stats.Iterations))
	r.Trace.Attr("enodes", int64(ex.Stats.ENodes))
	r.Trace.Attr("eclasses", int64(ex.Stats.EClasses))
	r.Trace.End()
}

// stopped reports whether the cancellation channel has fired; a nil
// channel (no context) never stops.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// iterate runs one exploration iteration: freeze the e-graph, apply
// every rule's matches, searching each pattern on demand just before
// the first rule that reads it (Algorithm 1, lines 9-22), then rebuild
// and post-process cycles (Algorithm 2, lines 10-18).
// It reports whether the e-graph changed and whether the iteration was
// interrupted (cancellation, deadline, or node limit) before every
// match was considered — an interrupted no-change iteration is not
// saturation.
func (r *Runner) iterate(ex *Explored, cr *CompiledRules, st *searchState, cycles *cycleFilter,
	useMulti bool, lim Limits, deadline time.Time,
	done <-chan struct{}) (changed, interrupted bool) {

	g := ex.G
	nodesBefore := g.NodeCount()
	classesBefore := g.ClassCount()
	matchesBefore := ex.Stats.Matches
	appliedBefore := ex.Stats.Applied
	redundantBefore := ex.Stats.Redundant
	scannedBefore := ex.Stats.SearchScanned
	searchMatchesBefore := ex.Stats.SearchMatches

	r.Trace.Begin("iteration")
	r.Trace.Attr("iteration", int64(ex.Stats.Iterations))

	// One descendants snapshot per iteration for the efficient filter.
	if r.Filter == FilterEfficient {
		r.Trace.Begin("descendants")
		cycles.computeDescendants(g, &ex.Filtered)
		r.Trace.End()
	}

	// SEARCH(G, e_c) runs against a view frozen before any rule applies.
	// The scans run on demand in the rule loop, so a pattern that no
	// reached rule reads is not scanned this iteration.
	r.Trace.Begin("search")
	searchStart := time.Now()
	st.freeze(g)
	ex.Stats.SearchTime += time.Since(searchStart)
	r.Trace.End()

	// apply considers one match of a rule: matched[i] is the class its
	// i-th source matched at and bind the rule's variables by slot. The
	// rule loop below sizes matched, bind and metas for each rule.
	var matched, bind []egraph.ClassID
	var metas []*tensor.Meta // per slot; nil at a slot no source binds
	apply := func(rule *Rule, c *compiledRule) {
		// Chaos hook: a fault armed at rewrite.apply models a buggy rule.
		// Apply has no error channel, so an injected error panics too —
		// the job-level recovery barrier is exactly what it exercises.
		if err := fault.Check("rewrite.apply"); err != nil {
			panic(err)
		}
		// A match whose every target is already in its matched class
		// would add no node and union only equal classes: Lookup is Add's
		// hit branch, so skipping it leaves the e-graph as applying would,
		// whatever the checks below decide.
		redundant := true
		for i, tgt := range c.targets {
			if id, ok := tgt.Lookup(g, bind); !ok || id != g.Find(matched[i]) {
				redundant = false
				break
			}
		}
		if redundant {
			ex.Stats.Redundant++
			return
		}
		// Shape checking (§4) over every target pattern.
		for slot, id := range bind[:c.bound] {
			metas[slot] = ClassMeta(g, id)
		}
		for _, tgt := range c.targets {
			if _, err := tgt.InferMeta(metas); err != nil {
				ex.Stats.SkippedShape++
				return
			}
		}
		if rule.Cond != nil {
			subst := make(pattern.Subst, c.bound)
			for slot, id := range bind[:c.bound] {
				subst[c.vars[slot]] = id
			}
			if !rule.Cond(g, subst) {
				ex.Stats.SkippedShape++
				return
			}
		}
		// Cycle pre-filtering.
		if r.Filter != FilterNone {
			if r.Filter == FilterVanilla {
				// Vanilla: a full pass over the e-graph per substitution.
				cycles.computeDescendants(g, &ex.Filtered)
			}
			for i, tgt := range c.targets {
				if cycles.willCreateCycle(g, tgt, bind, matched[i]) {
					ex.Stats.SkippedCycle++
					return
				}
			}
		}
		// APPLY: instantiate each target and union with its matched
		// output. A match that is not redundant adds a node or merges two
		// classes, so it changes the e-graph.
		for i, tgt := range c.targets {
			g.Union(tgt.Instantiate(g, bind), matched[i])
		}
		ex.Stats.Applied++
	}

	r.Trace.Begin("apply")
	applyStart, searchBefore := time.Now(), ex.Stats.SearchTime
	for ri, rule := range r.Rules {
		if rule.IsMulti() && !useMulti {
			continue
		}
		if g.NodeCount() >= lim.MaxNodes || time.Now().After(deadline) || stopped(done) {
			// Record timeout/cancel here, not only at the explore loop
			// top: the iteration-limit check there runs first and would
			// otherwise mask a budget cut as a plain iter-limit stop.
			if stopped(done) {
				ex.Stats.Canceled = true
			} else if time.Now().After(deadline) {
				ex.Stats.HitTimeout = true
			}
			interrupted = true
			break
		}
		c := &cr.rules[ri]
		if !st.search(c, &ex.Stats, done) {
			ex.Stats.Canceled = true
			interrupted = true
			break
		}
		matched = append(matched[:0], make([]egraph.ClassID, len(c.sources))...)
		bind = append(bind[:0], make([]egraph.ClassID, len(c.vars))...)
		metas = append(metas[:0], make([]*tensor.Meta, len(c.vars))...)
		if !rule.IsMulti() {
			ref := c.sources[0]
			ms := &st.pats[ref.pat].matches
			for mi := 0; mi < ms.Len(); mi++ {
				// Large match lists must notice a dead request between
				// rule boundaries, same cadence as applyMulti.
				if mi%256 == 255 && (time.Now().After(deadline) || stopped(done)) {
					if stopped(done) {
						ex.Stats.Canceled = true
					} else {
						ex.Stats.HitTimeout = true
					}
					interrupted = true
					break
				}
				ex.Stats.Matches++
				matched[0] = ms.Roots[mi]
				for k, id := range ms.Bind(mi) {
					bind[ref.slots[k]] = id
				}
				apply(rule, c)
				if g.NodeCount() >= lim.MaxNodes {
					interrupted = true
					break
				}
			}
			continue
		}
		// Multi-pattern: cartesian product of decanonicalized matches,
		// keeping only combinations compatible on shared variables
		// (Algorithm 1, lines 11-21).
		visit := func() { apply(rule, c) }
		if r.applyMulti(ex, c, st, matched, bind, visit, lim, deadline, done) {
			interrupted = true
		}
	}
	ex.Stats.ApplyTime += time.Since(applyStart) - (ex.Stats.SearchTime - searchBefore)
	r.Trace.Attr("scanned", int64(ex.Stats.SearchScanned-scannedBefore))
	r.Trace.Attr("search_matches", int64(ex.Stats.SearchMatches-searchMatchesBefore))
	r.Trace.Attr("matches", int64(ex.Stats.Matches-matchesBefore))
	r.Trace.Attr("redundant", int64(ex.Stats.Redundant-redundantBefore))
	r.Trace.Attr("applied", int64(ex.Stats.Applied-appliedBefore))
	r.Trace.End()

	r.Trace.Begin("rebuild")
	rebuildStart := time.Now()
	g.Rebuild()

	if r.Filter != FilterNone {
		ex.Stats.FilteredNodes += cycles.filterCycles(g, &ex.Filtered, done)
	}
	ex.Stats.RebuildTime += time.Since(rebuildStart)
	r.Trace.End()

	r.Trace.Attr("enodes", int64(g.NodeCount()))
	r.Trace.Attr("eclasses", int64(g.ClassCount()))
	r.Trace.Attr("enodes_delta", int64(g.NodeCount()-nodesBefore))
	r.Trace.Attr("eclasses_delta", int64(g.ClassCount()-classesBefore))
	r.Trace.End()
	return ex.Stats.Applied != appliedBefore, interrupted
}

// searchShardSize bounds how many classes one scan visits before the
// cancellation channel is consulted again. It caps the latency between
// a caller canceling and the search noticing: on pathological, heavily
// merged e-graphs a single pattern's candidate scan can run for
// minutes, which must not pin a worker slot after every interested
// request is gone.
const searchShardSize = 1024

// freeze starts an iteration's search: it freezes g and computes the
// classes dirty since each version a match list is complete at, once
// per distinct version. It runs before any rule applies, because
// DirtySince reads the live classes that Add and Union change.
func (st *searchState) freeze(g *egraph.EGraph) {
	st.view = g.Freeze()
	clear(st.dirty)
	for i := range st.pats {
		p := &st.pats[i]
		if p.valid && p.version != st.view.Version() && st.dirty[p.version] == nil {
			st.dirty[p.version] = st.view.DirtySince(p.version)
		}
	}
}

// search brings the match lists of c's sources up to date with the
// iteration's view, adding the time it takes to stats.SearchTime. It
// reports false when done fired first.
func (st *searchState) search(c *compiledRule, stats *Stats, done <-chan struct{}) bool {
	start := time.Now()
	defer func() { stats.SearchTime += time.Since(start) }()
	for _, src := range c.sources {
		if !st.update(src.pat, stats, done) {
			return false
		}
	}
	return true
}

// update brings canonical pattern i's match list up to date with the
// iteration's view. Two accelerations apply, neither of which changes
// the list:
//
//  1. Op-index pruning: a pattern rooted at op only visits
//     view.ByOp(op), the classes containing at least one node with
//     that op (Stats.SearchPruned counts the skipped rest).
//  2. Incremental re-search: once the pattern has a list, only the
//     candidates dirty since the list's version are scanned, and clean
//     candidates answer from the list. This is sound because
//     DirtySince is upward-closed — a clean class's entire
//     downward-reachable region is unchanged, so its matches (bindings
//     included) are exactly what they were.
//
// The list is therefore the one a full scan of the view produces, in
// the same order. When done fires first, update reports false and
// leaves the list complete as of its older version.
func (st *searchState) update(i int, stats *Stats, done <-chan struct{}) bool {
	p, view := &st.pats[i], st.view
	if p.valid && p.version == view.Version() {
		return true
	}
	prog := st.cr.pats[i].prog
	cands := view.Classes()
	if op, ok := prog.RootOp(); ok {
		cands = view.ByOp(op)
	}
	scan, dirty := cands, st.dirty[p.version]
	if p.valid {
		st.scan = st.scan[:0]
		for _, cls := range cands {
			if dirty[cls.ID] {
				st.scan = append(st.scan, cls)
			}
		}
		scan = st.scan
	}
	// Scan in bounded chunks, re-checking cancellation between them;
	// chunk results concatenate in scan order.
	st.found.Reset()
	for lo := 0; lo < len(scan) && !stopped(done); lo += searchShardSize {
		prog.AppendMatches(&st.found, view, scan[lo:min(lo+searchShardSize, len(scan))])
	}
	if stopped(done) {
		return false
	}
	// Build the new list beside the old one, which the merge reads.
	next := &p.spare
	next.Reset()
	if p.valid {
		mergeMatches(next, cands, dirty, &p.matches, []matchRun{{&st.found, 0, st.found.Len()}})
		stats.SearchDirty += len(scan)
		stats.SearchClean += len(cands) - len(scan)
	} else {
		next.AppendRange(&st.found, 0, st.found.Len())
	}
	p.matches, p.spare = p.spare, p.matches
	p.version, p.valid = view.Version(), true
	stats.SearchPruned += view.ClassCount() - len(cands)
	stats.SearchScanned += len(scan)
	stats.SearchMatches += p.matches.Len()
	return true
}

// applyMulti enumerates compatible match combinations for a
// multi-pattern rule via backtracking over the per-source match lists:
// source i's match goes into matched[i] and its bindings into the
// rule's slots of bind, and visit is called on each full combination.
// It reports whether enumeration was aborted early (node limit,
// deadline, or cancellation): the abort flag unwinds the entire
// recursion, so no sibling branch of the cartesian product keeps
// enumerating after the budget is gone. An abort caused by the done
// channel sets Stats.Canceled.
func (r *Runner) applyMulti(ex *Explored, c *compiledRule, st *searchState,
	matched, bind []egraph.ClassID, visit func(),
	lim Limits, deadline time.Time, done <-chan struct{}) (aborted bool) {

	g := ex.G
	visited := 0
	var rec func(i int)
	rec = func(i int) {
		if aborted {
			return
		}
		if g.NodeCount() >= lim.MaxNodes {
			aborted = true
			return
		}
		if visited++; visited%256 == 0 && (time.Now().After(deadline) || stopped(done)) {
			if stopped(done) {
				ex.Stats.Canceled = true
			} else {
				ex.Stats.HitTimeout = true
			}
			aborted = true
			return
		}
		if i == len(c.sources) {
			ex.Stats.Matches++
			visit()
			return
		}
		ref := c.sources[i]
		ms := &st.pats[ref.pat].matches
	match:
		for mi := 0; mi < ms.Len(); mi++ {
			if aborted {
				return
			}
			// COMPATIBLE: shared variables must map to the same e-class.
			for k, id := range ms.Bind(mi) {
				if slot := ref.slots[k]; !ref.shared[k] {
					bind[slot] = id
				} else if g.Find(bind[slot]) != g.Find(id) {
					continue match
				}
			}
			matched[i] = ms.Roots[mi]
			rec(i + 1)
		}
	}
	rec(0)
	return aborted
}
