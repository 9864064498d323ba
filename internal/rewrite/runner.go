package rewrite

import (
	"context"
	"fmt"
	"slices"
	"strings"
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
	// FilterEfficient is Algorithm 2: pre-filtering against the
	// iteration's start, answered from the postorder the previous DFS
	// post-processing pass left, plus that pass itself.
	FilterEfficient FilterMode = iota
	// FilterVanilla repeats the full DFS walk on the live e-graph
	// before every single substitution and pre-filters against that
	// (O(n_m * N) per iteration).
	FilterVanilla
	// FilterNone performs no cycle filtering; extraction must then use
	// the ILP formulation with cycle constraints (§5.1).
	FilterNone
)

// filterNames spells each FilterMode: the CLI's -filter values and the
// serving layer's "cycle_filter" option.
var filterNames = []string{FilterEfficient: "efficient", FilterVanilla: "vanilla", FilterNone: "none"}

// String names the mode.
func (m FilterMode) String() string {
	text, err := m.MarshalText()
	if err != nil {
		return fmt.Sprintf("FilterMode(%d)", int(m))
	}
	return string(text)
}

// MarshalText spells m: "efficient", "vanilla" or "none".
func (m FilterMode) MarshalText() ([]byte, error) {
	if m < 0 || int(m) >= len(filterNames) {
		return nil, fmt.Errorf("rewrite: filter mode %d has no name", int(m))
	}
	return []byte(filterNames[m]), nil
}

// UnmarshalText sets m to the mode text spells. An unknown name leaves
// m as it was and is an error listing the known names.
func (m *FilterMode) UnmarshalText(text []byte) error {
	i := slices.Index(filterNames, string(text))
	if i < 0 {
		return fmt.Errorf("rewrite: unknown cycle filter %q (known: %s)", text, strings.Join(filterNames, ", "))
	}
	*m = FilterMode(i)
	return nil
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

// StopReason says why exploration ended (§6.1): it saturated, or ran
// into k_max iterations, N_max e-nodes, its time limit, or the caller's
// cancellation.
type StopReason string

const (
	StopSaturated StopReason = "saturated"  // a full iteration changed nothing
	StopIterLimit StopReason = "iter_limit" // Limits.MaxIters iterations ran
	StopNodeLimit StopReason = "node_limit" // an iteration ended with Limits.MaxNodes e-nodes
	StopTimeout   StopReason = "timeout"    // Limits.Timeout passed
	StopCanceled  StopReason = "canceled"   // the caller's context was done
)

// Stats reports what the exploration phase did. Each match lands in
// exactly one of Redundant, Applied, SkippedShape and SkippedCycle, so
// the four sum to Matches. A match is redundant when every node its
// targets name is already present and each target's class is the
// matched one: it is not checked or applied, since applying it would
// add nothing and union only equal classes.
type Stats struct {
	Iterations    int
	Stop          StopReason // why exploration ended; every run records exactly one
	Matches       int        // candidate substitutions found
	Redundant     int        // substitutions whose every target was already in its matched class
	Applied       int        // substitutions applied: each changed the e-graph
	SkippedShape  int        // substitutions rejected by shape checking or the rule's Cond
	SkippedCycle  int        // substitutions rejected by the pre-filter
	FilteredNodes int        // e-nodes put on the filter list by post-processing
	ENodes        int        // final e-node count
	EClasses      int        // final e-class count
	ExploreTime   time.Duration
	// ApplyTime and RebuildTime split out the remainder of ExploreTime:
	// the rule-application loop (target walks, Cond, cycle pre-filter,
	// planned nodes and unions, but not the pattern scans it runs) and
	// the congruence rebuild plus cycle post-processing, each summed
	// over iterations.
	ApplyTime   time.Duration
	RebuildTime time.Duration
	// SearchTime is the part of ExploreTime spent in e-matching search,
	// summed over iterations: freezing the view, then the pattern scans
	// the rule loop runs on demand before a rule's first use.
	SearchTime time.Duration
	// Search work accounting, summed over iterations and the canonical
	// patterns each iteration searched: a pattern that no rule the
	// iteration reached reads is not searched. For each (pattern,
	// iteration) pair searched, the candidate classes (those containing
	// the pattern's root operator) are scanned, while every class
	// without the root op is pruned without a visit:
	//
	//	SearchScanned  — classes the pattern VM actually visited
	//	SearchPruned   — classes skipped by the op index
	//	SearchMatches  — matches in the lists searched
	SearchScanned int
	SearchPruned  int
	SearchMatches int
	// SearchClean and SearchDirty are not written: every search scans
	// all of its candidates.
	//
	// Deprecated: they always read 0. They remain only because the
	// benchmark's pipeline (bench/pipeline.go) still reads them; they go
	// when that file next changes.
	SearchClean, SearchDirty int
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
	// Deprecated: it has no effect. It remains only because the
	// benchmark's pipeline (bench/pipeline.go) still sets it; it goes
	// when that file next changes.
	Workers int
	// Progress, when non-nil, is called from the exploring goroutine
	// once before the first iteration (with iteration 0 and the
	// freshly ingested e-graph's sizes) and again after every
	// completed iteration. It must return quickly and must not touch
	// the e-graph.
	Progress func(iteration, enodes, eclasses int)
	// Trace, when non-nil, receives phase spans: an "explore" span
	// containing one "iteration" span per iteration — each with
	// "search" (the freeze), "apply" (the rule loop, one target walk
	// per match, with the classes its on-demand scans visited, the
	// matches they listed, and how many matches it considered, found
	// redundant and applied) and "rebuild" children,
	// annotated with e-node / e-class deltas — and a closing "filter"
	// span for the final cycle pass. A nil Trace records nothing and
	// costs a nil check per phase boundary.
	Trace *obs.Trace
}

// NewRunner builds a Runner with default limits and efficient filtering.
func NewRunner(rules []*Rule) *Runner {
	return &Runner{Rules: rules, Filter: FilterEfficient, Limits: DefaultLimits()}
}

// RunContext explores the e-graph of t until saturation or limits.
// When ctx is done, exploration stops at the next check point exactly
// as if Limits.Timeout had expired (Stats.Stop is StopCanceled), and
// the partial e-graph is returned.
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
	e := r.newExploration(ex, start, done)
	g := ex.G
	if r.Filter == FilterEfficient {
		// Later iterations pre-filter against the order the previous
		// one's post-processing left; the first one against this walk
		// of the ingested graph.
		e.cycles.findCycles(g, &ex.Filtered)
	}

	if r.Progress != nil {
		r.Progress(0, g.NodeCount(), g.ClassCount())
	}
	// Checked before the first iteration too: the input may be full.
	for iter := 0; !e.stop(true, true); iter++ {
		if iter >= e.lim.MaxIters {
			ex.Stats.Stop = StopIterLimit
			break
		}
		changed := e.iterate(iter < e.lim.KMulti)
		ex.Stats.Iterations++
		if r.Progress != nil {
			r.Progress(ex.Stats.Iterations, g.NodeCount(), g.ClassCount())
		}
		// Saturation means a full iteration ran to completion without
		// changing the e-graph. An iteration a stop cause cut short
		// proves nothing, and neither does one that ended past the
		// deadline or after cancellation.
		if !changed && !e.stop(true, true) {
			ex.Stats.Stop = StopSaturated
		}
	}

	// Guarantee the acyclic invariant before extraction. This final
	// pass is deliberately uncancelable (nil done): extraction relies
	// on acyclicity even when exploration was cut short.
	if r.Filter != FilterNone {
		r.Trace.Begin("filter")
		ex.Stats.FilteredNodes += e.cycles.filterCycles(g, &ex.Filtered, nil)
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

// exploration is one run of the exploration phase: the e-graph and the
// Explored it fills, the compiled rules, the iteration's match lists,
// the cycle filter's scratch, and the budget the run stops on.
type exploration struct {
	r        *Runner
	ex       *Explored
	g        *egraph.EGraph
	cr       *CompiledRules
	st       searchState
	cycles   cycleFilter // Algorithm 2's scratch
	lim      Limits
	deadline time.Time
	done     <-chan struct{}

	// The match in hand: c is its compiled rule, matched[i] the class
	// its i-th source matched at, bind the rule's variables by slot and
	// plans one per target. meta, made once per run, is what Cond
	// reads it through (bindingMeta).
	c       *compiledRule
	matched []egraph.ClassID
	bind    []egraph.ClassID
	plans   []pattern.Plan
	meta    func(v string) *tensor.Meta
}

// newExploration sets up a run of r over ex, started at start, that
// done cancels.
func (r *Runner) newExploration(ex *Explored, start time.Time, done <-chan struct{}) *exploration {
	// MaxNodes/Timeout zero means "default"; MaxIters 0 is honored as-is
	// (an explicit "do not explore"), matching the k_multi=0 baseline.
	lim, def := r.Limits, DefaultLimits()
	if lim.MaxNodes == 0 {
		lim.MaxNodes = def.MaxNodes
	}
	if lim.Timeout == 0 {
		lim.Timeout = def.Timeout
	}
	// Resolve the compiled rule set: the precompiled programs from rule
	// registration when available, a fresh compilation otherwise
	// (Algorithm 1, lines 1-8, plus pattern-program compilation).
	cr := r.Compiled
	if !cr.compiledFor(r.Rules) {
		cr = CompileRules(r.Rules)
	}
	st := searchState{pats: make([]patState, len(cr.pats))}
	e := &exploration{r: r, ex: ex, g: ex.G, cr: cr, st: st,
		lim: lim, deadline: start.Add(lim.Timeout), done: done}
	e.meta = e.bindingMeta
	return e
}

// bindingMeta is Rule.Cond's view of the match in hand: the meta of the
// class variable v is bound to, nil for a name no source binds.
func (e *exploration) bindingMeta(v string) *tensor.Meta {
	if slot := slices.Index(e.c.vars[:e.c.bound], v); slot >= 0 {
		return ClassMeta(e.g, e.bind[slot])
	}
	return nil
}

// stop is the one place exploration decides to end early. It tests
// the node limit, then, when clock is set, cancellation and then the
// deadline, and reports whether one holds; once a cause is recorded in
// Stats.Stop, it reports true without testing. Cancellation and the
// deadline are recorded as soon as they are found. A full e-graph is
// recorded only between iterations (between set): within one it ends
// just the iteration, since the rebuild that closes it can merge
// e-nodes back under the limit. The node count is cheap and is tested
// before every match visit; the clock and the channel are read every
// 256 visits, before each rule and search shard, and between
// iterations.
func (e *exploration) stop(clock, between bool) bool {
	s := &e.ex.Stats
	switch full := e.g.NodeCount() >= e.lim.MaxNodes; {
	case s.Stop != "":
	case full && !between:
		return true
	case full:
		s.Stop = StopNodeLimit
	case !clock:
	case stopped(e.done):
		s.Stop = StopCanceled
	case time.Now().After(e.deadline):
		s.Stop = StopTimeout
	}
	return s.Stop != ""
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
// and post-process cycles (Algorithm 2, lines 10-18). It reports
// whether the e-graph changed. The stop check ends the rule loop early.
func (e *exploration) iterate(useMulti bool) (changed bool) {
	r, ex, g, st := e.r, e.ex, e.g, &e.st
	nodesBefore := g.NodeCount()
	classesBefore := g.ClassCount()
	matchesBefore := ex.Stats.Matches
	appliedBefore := ex.Stats.Applied
	redundantBefore := ex.Stats.Redundant
	scannedBefore := ex.Stats.SearchScanned
	searchMatchesBefore := ex.Stats.SearchMatches

	r.Trace.Begin("iteration")
	r.Trace.Attr("iteration", int64(ex.Stats.Iterations))

	// SEARCH(G, e_c) runs against a view frozen before any rule applies.
	// The scans run on demand in the rule loop, so a pattern that no
	// reached rule reads is not scanned this iteration.
	r.Trace.Begin("search")
	searchStart := time.Now()
	st.view = g.Freeze()
	ex.Stats.SearchTime += time.Since(searchStart)
	r.Trace.End()

	r.Trace.Begin("apply")
	applyStart, searchBefore := time.Now(), ex.Stats.SearchTime
	for ri, rule := range r.Rules {
		if rule.IsMulti() && !useMulti {
			continue
		}
		if e.stop(true, false) {
			break
		}
		c := &e.cr.rules[ri]
		e.search(c)
		e.c = c
		e.matched = append(e.matched[:0], make([]egraph.ClassID, len(c.sources))...)
		e.bind = append(e.bind[:0], make([]egraph.ClassID, len(c.vars))...)
		if len(e.plans) < len(c.targets) {
			e.plans = make([]pattern.Plan, len(c.targets))
		}
		// Every rule, single- or multi-pattern, applies the cartesian
		// product of its sources' match lists (Algorithm 1, lines 11-21).
		// A search a stop cut short leaves nothing to visit.
		e.enumerate(rule)
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
		ex.Stats.FilteredNodes += e.cycles.filterCycles(g, &ex.Filtered, e.done)
	}
	ex.Stats.RebuildTime += time.Since(rebuildStart)
	r.Trace.End()

	r.Trace.Attr("enodes", int64(g.NodeCount()))
	r.Trace.Attr("eclasses", int64(g.ClassCount()))
	r.Trace.Attr("enodes_delta", int64(g.NodeCount()-nodesBefore))
	r.Trace.Attr("eclasses_delta", int64(g.ClassCount()-classesBefore))
	r.Trace.End()
	return ex.Stats.Applied != appliedBefore
}

// apply considers the match in hand of rule.
func (e *exploration) apply(rule *Rule) {
	r, ex, g, c := e.r, e.ex, e.g, e.c
	matched, bind, plans := e.matched, e.bind, e.plans
	// Chaos hook: a fault armed at rewrite.apply models a buggy rule.
	// Apply has no error channel, so an injected error panics too —
	// the job-level recovery barrier is exactly what it exercises.
	if err := fault.Check("rewrite.apply"); err != nil {
		panic(err)
	}
	// One walk per target decides. A match whose every target is
	// already in its matched class would add no node and union only
	// equal classes, whatever the checks below decide. Otherwise
	// shape checking (§4) needs each target to infer what its class
	// holds.
	redundant, fits := true, true
	for i := 0; i < len(c.targets) && (redundant || fits); i++ {
		out := ClassMeta(g, matched[i])
		id, m, ok := c.targets[i].Walk(g, bind[:c.bound], out, &plans[i])
		redundant = redundant && ok && id == g.Find(matched[i])
		fits = fits && ok && m != nil && out != nil && m.Equivalent(out)
	}
	if redundant {
		ex.Stats.Redundant++
		return
	}
	if !fits || rule.Cond != nil && !rule.Cond(e.meta) {
		ex.Stats.SkippedShape++
		return
	}
	// Cycle pre-filtering: the efficient filter reads the frozen view,
	// the graph its order numbers, since the live class lists grow
	// as rules apply.
	if r.Filter != FilterNone {
		var src classGraph = e.st.view
		if r.Filter == FilterVanilla {
			// Vanilla: a full walk of the live e-graph per substitution.
			e.cycles.findCycles(g, &ex.Filtered)
			src = liveGraph{g}
		}
		for i, tgt := range c.targets {
			if e.cycles.willCreateCycle(g, src, &ex.Filtered, tgt, bind, matched[i]) {
				ex.Stats.SkippedCycle++
				return
			}
		}
	}
	// APPLY: add each target's planned nodes and union its root with
	// its matched output. A match that is not redundant adds a node or
	// merges two classes, so it changes the e-graph.
	for i := range c.targets {
		g.Union(plans[i].Apply(g), matched[i])
	}
	ex.Stats.Applied++
}

// searchShardSize bounds how many classes one scan visits before the
// stop check runs again. It caps the latency between a caller
// canceling and the search noticing: on pathological, heavily merged
// e-graphs a single pattern's candidate scan can run for minutes,
// which must not pin a worker slot after every interested request is
// gone.
const searchShardSize = 1024

// search brings the match lists of c's sources up to date with the
// iteration's view, adding the time it takes to Stats.SearchTime.
func (e *exploration) search(c *compiledRule) {
	start := time.Now()
	for _, src := range c.sources {
		e.update(src.pat)
	}
	e.ex.Stats.SearchTime += time.Since(start)
}

// update brings canonical pattern i's match list up to date with the
// iteration's view: a full scan of the candidates, which op-index
// pruning narrows to view.ByOp(op) for a pattern rooted at op, the
// classes containing at least one node with that op (Stats.SearchPruned
// counts the skipped rest). The list is therefore the one a scan of
// every class produces, in the same order. The scan runs in chunks of
// searchShardSize classes with the stop check between them; when it
// fires, the list is left unfinished and not current.
func (e *exploration) update(i int) {
	st, stats := &e.st, &e.ex.Stats
	p, view := &st.pats[i], st.view
	if p.view == view {
		return
	}
	prog := e.cr.pats[i].prog
	cands := view.Classes()
	if op, ok := prog.RootOp(); ok {
		cands = view.ByOp(op)
	}
	p.matches.Reset()
	for lo := 0; lo < len(cands); lo += searchShardSize {
		if e.stop(true, false) {
			return
		}
		prog.AppendMatches(&p.matches, view, cands[lo:min(lo+searchShardSize, len(cands))])
	}
	p.view = view
	stats.SearchPruned += view.ClassCount() - len(cands)
	stats.SearchScanned += len(cands)
	stats.SearchMatches += p.matches.Len()
}

// enumerate visits rule's matches: the combinations of one match per
// source, taken from the per-source match lists, that agree on the
// variables sources share (Algorithm 1's COMPATIBLE). It backtracks
// over the sources of e.c in order: source i's match goes into
// e.matched[i] and its bindings into the rule's slots of e.bind, and
// each full combination is counted in Stats.Matches and applied. A single-pattern
// rule is the one-source case: it shares no variable, so every match
// of its list is visited once, in list order. The stop check runs
// before every step of the recursion, reading the clock every 256th;
// once it holds, the entire recursion unwinds, so no sibling branch of
// the cartesian product keeps enumerating after the budget is gone.
func (e *exploration) enumerate(rule *Rule) {
	g, stats, c, matched, bind := e.g, &e.ex.Stats, e.c, e.matched, e.bind
	visited := 0
	var rec func(i int) bool // false once the stop check holds
	rec = func(i int) bool {
		if visited++; e.stop(visited%256 == 0, false) {
			return false
		}
		if i == len(c.sources) {
			stats.Matches++
			e.apply(rule)
			return true
		}
		ref := c.sources[i]
		ms := &e.st.pats[ref.pat].matches
	match:
		for mi := 0; mi < ms.Len(); mi++ {
			// COMPATIBLE: shared variables must map to the same e-class.
			for k, id := range ms.Bind(mi) {
				if slot := ref.slots[k]; !ref.shared[k] {
					bind[slot] = id
				} else if g.Find(bind[slot]) != g.Find(id) {
					continue match
				}
			}
			matched[i] = ms.Roots[mi]
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}
