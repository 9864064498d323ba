package rewrite

import (
	"slices"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
)

// CompiledRules is the reusable compiled form of a rule set: the
// canonicalized source-pattern set of Algorithm 1 (lines 1-8), with
// each canonical pattern compiled once into a pattern.Program (the
// flat-instruction e-matching VM), and each rule's targets compiled
// against the rule's variable slots (pattern.Target), so that applying
// a match reads bindings by index and builds no substitution map.
// Compile a rule set once — at rule registration — and share it across
// any number of concurrent runs: a CompiledRules is immutable and safe
// for concurrent use; all per-run search state lives in the Runner's
// exploration.
type CompiledRules struct {
	// Rules is the rule set this was compiled from, in order.
	Rules []*Rule

	pats  []*compiledPat
	rules []compiledRule // parallel to Rules
}

// compiledPat is one canonical source pattern, searched at most once
// per iteration and shared by every rule source that renames to it.
type compiledPat struct {
	pat  *pattern.Pat
	prog *pattern.Program
}

// compiledRule is one rule over binding slots. vars numbers the rule's
// variables: those its sources bind first (in first-occurrence order),
// then any a target names that no source binds — such a slot is past
// the walk's bindings, bind[:bound], so the rule never fires.
type compiledRule struct {
	vars    []string
	bound   int // vars[:bound] are bound by the sources
	sources []sourceRef
	targets []*pattern.Target
}

// sourceRef ties a rule's i-th source to its canonical pattern (by
// index into pats) and gives the rule slot of each of that pattern's
// variables (DECANONICAL of Algorithm 1). shared[k] marks a variable an
// earlier source of the rule binds too: the COMPATIBLE check.
type sourceRef struct {
	pat    int
	slots  []int
	shared []bool
}

// CompileRules canonicalizes and compiles a rule set. Patterns that
// differ only by variable naming share one canonical program, so the
// per-iteration search runs once per canonical form.
//
//lint:ctxflow-exempt one pass over the rule list at load time, bounded by rule-set size
func CompileRules(rules []*Rule) *CompiledRules {
	cr := &CompiledRules{Rules: rules, rules: make([]compiledRule, len(rules))}
	index := make(map[string]int)
	for ri, rule := range rules {
		c := &cr.rules[ri]
		slotOf := func(name string) (slot int, seen bool) {
			if slot = slices.Index(c.vars, name); slot >= 0 {
				return slot, true
			}
			c.vars = append(c.vars, name)
			return len(c.vars) - 1, false
		}
		for _, src := range rule.Sources {
			cp, back := src.Canonical()
			key := cp.String()
			i, ok := index[key]
			if !ok {
				i = len(cr.pats)
				index[key] = i
				cr.pats = append(cr.pats, &compiledPat{pat: cp, prog: pattern.Compile(cp)})
			}
			ref := sourceRef{pat: i}
			for _, v := range cr.pats[i].prog.Vars() {
				slot, seen := slotOf(back[v])
				ref.slots = append(ref.slots, slot)
				ref.shared = append(ref.shared, seen)
			}
			c.sources = append(c.sources, ref)
		}
		c.bound = len(c.vars)
		for _, tgt := range rule.Targets {
			for _, v := range tgt.Vars() {
				slotOf(v)
			}
			c.targets = append(c.targets, pattern.CompileTarget(tgt, c.vars))
		}
	}
	return cr
}

// CanonicalPatterns returns the canonical source patterns and their
// compiled programs as parallel slices in first-seen order — the exact
// pattern set the search phase runs, for benchmarks and diagnostics.
// Callers must not modify the slices.
func (cr *CompiledRules) CanonicalPatterns() ([]*pattern.Pat, []*pattern.Program) {
	pats := make([]*pattern.Pat, len(cr.pats))
	progs := make([]*pattern.Program, len(cr.pats))
	for i, cp := range cr.pats {
		pats[i] = cp.pat
		progs[i] = cp.prog
	}
	return pats, progs
}

// compiledFor reports whether cr was compiled from exactly this rule
// slice (element identity), so a Runner can trust a caller-supplied
// compilation and recompile otherwise.
func (cr *CompiledRules) compiledFor(rules []*Rule) bool {
	if cr == nil || len(cr.Rules) != len(rules) {
		return false
	}
	for i, r := range rules {
		if cr.Rules[i] != r {
			return false
		}
	}
	return true
}

// searchState carries one exploration run's match lists from iteration
// to iteration, one per canonical pattern, and the iteration's frozen
// view. A list is complete as of the view version it was computed at.
// A pattern that no reached rule read keeps an older list, so lists can
// be several freezes apart: bringing one up to date re-searches only
// the candidates dirty since its own version (see View.DirtySince for
// why that is sound). The scratch fields serve every search, so an
// iteration whose lists fit the previous storage allocates nothing for
// its matches.
type searchState struct {
	pats []patState // per compiledPat

	view  *egraph.View      // this iteration's
	dirty map[uint64][]bool // version some list is complete at -> the classes dirty since, on view

	scan  []*egraph.Class // scratch: the dirty candidates of the pattern in hand
	found pattern.Matches // scratch: what scanning them found
}

// patState is one canonical pattern's match list.
type patState struct {
	matches pattern.Matches // complete as of the view at version
	spare   pattern.Matches // the previous list: storage for the next
	version uint64
	valid   bool // false until one search completes
}

// matchRun is matches lo..hi of a list: what one scan appended to it.
type matchRun struct {
	list   *pattern.Matches
	lo, hi int
}

// mergeMatches builds a pattern's current match list in out by walking
// the candidate classes in ascending ID order, taking fresh results for
// dirty classes and memoized results for clean ones. fresh is the scan
// of exactly the dirty candidates, in this order, cut into runs; memo is
// ascending by root class. So the output is identical to a full rescan
// of the candidate list.
func mergeMatches(out *pattern.Matches, cands []*egraph.Class, dirty []bool,
	memo *pattern.Matches, fresh []matchRun) {

	mi := 0
	for _, cls := range cands {
		id := cls.ID
		if !dirty[id] {
			for mi < memo.Len() && memo.Roots[mi] < id {
				mi++
			}
			lo := mi
			for mi < memo.Len() && memo.Roots[mi] == id {
				mi++
			}
			out.AppendRange(memo, lo, mi)
			continue
		}
		for len(fresh) > 0 && fresh[0].lo == fresh[0].hi {
			fresh = fresh[1:]
		}
		if len(fresh) > 0 {
			run := &fresh[0]
			lo := run.lo
			for run.lo < run.hi && run.list.Roots[run.lo] == id {
				run.lo++
			}
			out.AppendRange(run.list, lo, run.lo)
		}
	}
}
