package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tensat"
	"tensat/internal/extract"
	"tensat/internal/obs"
	"tensat/internal/pattern"
	"tensat/internal/rewrite"
)

// job is one (graph, options) pair the library optimizes: a zoo row,
// or a generated graph a daemon would run cold.
type job struct {
	name  string
	graph *tensat.Graph
	opts  tensat.Options
}

// ruleSets holds the rule sets the workloads name, compiled once in
// set-up the way tensat.Registry compiles them at registration.
type ruleSets map[string]compiledSet

type compiledSet struct {
	rules    []*tensat.Rule
	compiled *rewrite.CompiledRules
}

func compileRuleSets(reg *tensat.Registry, names ...string) (ruleSets, error) {
	sets := make(ruleSets)
	for _, n := range names {
		rs, ok := reg.RuleSet(n)
		if !ok {
			return nil, fmt.Errorf("rule set %q is not registered", n)
		}
		sets[n] = compiledSet{rules: rs, compiled: rewrite.CompileRules(rs)}
	}
	return sets, nil
}

// layerCost is what one cut-open pipeline run measured, layer by
// layer. Costs add across rows, so a workload's figure is the sum.
type layerCost struct {
	Rows int `json:"rows"`

	ExploreS, SearchS, ApplyS, RebuildS            float64
	Iterations, Matches, Applied                   int
	SkippedCycle, FilteredNodes                    int
	ExploreAllocBytes, ExploreAllocs               uint64
	Scanned, Pruned, Dirty, Clean, SearchMatches   int
	SearchViewS                                    float64
	ENodes, EClasses                               int
	BuildS, GreedyS, ILPS                          float64
	ExtractAllocBytes                              uint64
	PresolveS                                      float64
	PresolveDropped, PresolveBefore, PresolveFixed int
	SolveS, FirstIncumbentS                        float64
	Explored                                       int64
	Incumbents, ILPRuns, ILPOptimal                int
}

func (a *layerCost) add(b layerCost) {
	a.Rows += b.Rows
	a.ExploreS += b.ExploreS
	a.SearchS += b.SearchS
	a.ApplyS += b.ApplyS
	a.RebuildS += b.RebuildS
	a.Iterations += b.Iterations
	a.Matches += b.Matches
	a.Applied += b.Applied
	a.SkippedCycle += b.SkippedCycle
	a.FilteredNodes += b.FilteredNodes
	a.ExploreAllocBytes += b.ExploreAllocBytes
	a.ExploreAllocs += b.ExploreAllocs
	a.Scanned += b.Scanned
	a.Pruned += b.Pruned
	a.Dirty += b.Dirty
	a.Clean += b.Clean
	a.SearchMatches += b.SearchMatches
	a.SearchViewS += b.SearchViewS
	a.ENodes += b.ENodes
	a.EClasses += b.EClasses
	a.BuildS += b.BuildS
	a.GreedyS += b.GreedyS
	a.ILPS += b.ILPS
	a.ExtractAllocBytes += b.ExtractAllocBytes
	a.PresolveS += b.PresolveS
	a.PresolveDropped += b.PresolveDropped
	a.PresolveBefore += b.PresolveBefore
	a.PresolveFixed += b.PresolveFixed
	a.SolveS += b.SolveS
	a.FirstIncumbentS += b.FirstIncumbentS
	a.Explored += b.Explored
	a.Incumbents += b.Incumbents
	a.ILPRuns += b.ILPRuns
	a.ILPOptimal += b.ILPOptimal
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics spells the cost out under the per-layer metric names.
func (c layerCost) metrics(m map[string]float64) {
	const mb = 1 << 20
	m["rewrite.explore_s"] = c.ExploreS
	m["rewrite.search_s"] = c.SearchS
	m["rewrite.apply_s"] = c.ApplyS
	m["rewrite.rebuild_s"] = c.RebuildS
	m["rewrite.other_s"] = c.ExploreS - c.SearchS - c.ApplyS - c.RebuildS
	m["rewrite.iterations"] = float64(c.Iterations)
	m["rewrite.matches"] = float64(c.Matches)
	m["rewrite.applied"] = float64(c.Applied)
	m["rewrite.applied_ratio"] = ratio(float64(c.Applied), float64(c.Matches))
	m["rewrite.skipped_cycle"] = float64(c.SkippedCycle)
	m["rewrite.filtered_nodes"] = float64(c.FilteredNodes)
	m["rewrite.alloc_mb"] = float64(c.ExploreAllocBytes) / mb
	m["rewrite.allocs_k"] = float64(c.ExploreAllocs) / 1e3
	m["pattern.scanned"] = float64(c.Scanned)
	m["pattern.pruned"] = float64(c.Pruned)
	m["pattern.pruned_ratio"] = ratio(float64(c.Pruned), float64(c.Pruned+c.Scanned))
	m["pattern.dirty"] = float64(c.Dirty)
	m["pattern.clean"] = float64(c.Clean)
	m["pattern.clean_ratio"] = ratio(float64(c.Clean), float64(c.Clean+c.Dirty))
	m["pattern.matches"] = float64(c.SearchMatches)
	m["pattern.search_view_s"] = c.SearchViewS
	m["egraph.enodes"] = float64(c.ENodes)
	m["egraph.eclasses"] = float64(c.EClasses)
	m["egraph.ns_per_enode"] = ratio((c.ApplyS+c.RebuildS)*1e9, float64(c.ENodes))
	m["egraph.bytes_per_enode"] = ratio(float64(c.ExploreAllocBytes), float64(c.ENodes))
	m["extract.build_s"] = c.BuildS
	m["extract.greedy_s"] = c.GreedyS
	m["extract.ilp_s"] = c.ILPS
	m["extract.alloc_mb"] = float64(c.ExtractAllocBytes) / mb
	m["presolve.s"] = c.PresolveS
	m["presolve.dropped_ratio"] = ratio(float64(c.PresolveDropped), float64(c.PresolveBefore))
	m["presolve.fixed"] = float64(c.PresolveFixed)
	m["ilp.solve_s"] = c.SolveS
	m["ilp.explored"] = float64(c.Explored)
	m["ilp.explored_per_s"] = ratio(float64(c.Explored), c.SolveS)
	m["ilp.incumbents"] = float64(c.Incumbents)
	m["ilp.first_incumbent_s"] = c.FirstIncumbentS
	m["ilp.optimal_share"] = ratio(float64(c.ILPOptimal), float64(c.ILPRuns))
}

func findSpan(s *obs.Span, name string) *obs.Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// timed runs f under a harness span and returns its duration.
func timed(rec *recorder, name string, parent, req int, f func() error) (time.Duration, int, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	return end.Sub(start), rec.add(name, start, end, parent, req), err
}

// allocDelta runs f and returns what it allocated. Reading the memory
// statistics stops the world for some tens of microseconds, which the
// caller's span around f then includes; only traced runs pay it.
func allocDelta(f func() error) (bytes, objects uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, err
}

// cutPipeline runs one job with the pipeline cut at its public seams —
// rewrite.Runner.RunContext, then extract.BuildProblem and ILPContext
// or GreedyContext — the way tensat.Optimizer runs it in one piece.
// Each call gets a harness span under parent; the spans the layers
// record themselves (Options.Trace) hang below as children. It returns
// what each layer cost and the extraction's result.
func cutPipeline(ctx context.Context, rec *recorder, parent, req int, j job, sets ruleSets, model tensat.CostModel) (layerCost, *extract.Result, error) {
	c := layerCost{Rows: 1}
	name := j.opts.RuleSet
	if name == "" {
		name = tensat.DefaultRuleSetName
	}
	set, ok := sets[name]
	if !ok {
		return c, nil, fmt.Errorf("%s: rule set %q was not compiled in set-up", j.name, name)
	}
	runner := rewrite.NewRunner(set.rules)
	runner.Compiled = set.compiled
	runner.Limits = rewrite.Limits{MaxNodes: j.opts.NodeLimit, MaxIters: j.opts.IterLimit, KMulti: j.opts.KMulti}
	runner.Workers = j.opts.Workers

	var ex *rewrite.Explored
	exploreTrace := obs.NewTrace("explore-trace")
	runner.Trace = exploreTrace
	var err error
	exploreStart := time.Now()
	c.ExploreAllocBytes, c.ExploreAllocs, err = allocDelta(func() (err error) {
		ex, err = runner.RunContext(ctx, j.graph)
		return err
	})
	exploreSpan := rec.add("rewrite.RunContext", exploreStart, time.Now(), parent, req)
	if err != nil {
		return c, nil, fmt.Errorf("%s: explore: %w", j.name, err)
	}
	rec.attach(findSpan(exploreTrace.Close(), "explore"), exploreStart, exploreSpan, req)
	st := ex.Stats
	c.ExploreS = st.ExploreTime.Seconds()
	c.SearchS, c.ApplyS, c.RebuildS = st.SearchTime.Seconds(), st.ApplyTime.Seconds(), st.RebuildTime.Seconds()
	c.Iterations, c.Matches, c.Applied = st.Iterations, st.Matches, st.Applied
	c.SkippedCycle, c.FilteredNodes = st.SkippedCycle, st.FilteredNodes
	c.Scanned, c.Pruned, c.Dirty, c.Clean, c.SearchMatches = st.SearchScanned, st.SearchPruned, st.SearchDirty, st.SearchClean, st.SearchMatches
	c.ENodes, c.EClasses = st.ENodes, st.EClasses

	// One full, non-incremental search of every canonical pattern over
	// the frozen final e-graph: the read-only scan on its own.
	d, _, _ := timed(rec, "pattern.SearchView", parent, req, func() error {
		view := ex.G.Freeze()
		pats, _ := set.compiled.CanonicalPatterns()
		for _, p := range pats {
			_ = pattern.SearchView(view, p)
		}
		return nil
	})
	c.SearchViewS = d.Seconds()

	var greedy *extract.Result
	d, _, err = timed(rec, "extract.GreedyContext", parent, req, func() error {
		var gerr error
		greedy, gerr = extract.GreedyContext(ctx, ex, model)
		return gerr
	})
	if err != nil {
		return c, nil, fmt.Errorf("%s: greedy: %w", j.name, err)
	}
	c.GreedyS = d.Seconds()
	if j.opts.Extractor == tensat.ExtractGreedy {
		return c, greedy, nil
	}

	ilpOpts := extract.ILPOptions{Timeout: j.opts.ILPTimeout, Solver: j.opts.ILPSolver}
	d, _, err = timed(rec, "extract.BuildProblem", parent, req, func() error {
		_, _, berr := extract.BuildProblem(ex, model, ilpOpts)
		return berr
	})
	if err != nil {
		return c, nil, fmt.Errorf("%s: build problem: %w", j.name, err)
	}
	c.BuildS = d.Seconds()

	var res *extract.Result
	ilpTrace := obs.NewTrace("ilp-trace")
	ilpOpts.Trace = ilpTrace
	ilpStart := time.Now()
	c.ExtractAllocBytes, _, err = allocDelta(func() (err error) {
		res, err = extract.ILPContext(ctx, ex, model, ilpOpts)
		return err
	})
	ilpEnd := time.Now()
	ilpSpan := rec.add("extract.ILPContext", ilpStart, ilpEnd, parent, req)
	if err != nil {
		return c, nil, fmt.Errorf("%s: ilp: %w", j.name, err)
	}
	c.ILPS = ilpEnd.Sub(ilpStart).Seconds()
	root := ilpTrace.Close()
	rec.attach(findSpan(root, "ilp"), ilpStart, ilpSpan, req)
	if s := findSpan(root, "presolve"); s != nil {
		c.PresolveS = s.Duration.Seconds()
	}
	if s := findSpan(root, "solve"); s != nil {
		c.SolveS = s.Duration.Seconds()
	}
	if r := res.Reduction; r != nil {
		c.PresolveDropped, c.PresolveBefore, c.PresolveFixed = r.NodesDropped, r.NodesBefore, r.VarsFixed
	}
	c.ILPRuns = 1
	c.Explored, c.Incumbents = res.ILP.Explored, res.ILP.Incumbents
	c.FirstIncumbentS = res.ILP.FirstIncumbent.Seconds()
	if res.ILP.Optimal {
		c.ILPOptimal = 1
	}
	return c, res, nil
}
