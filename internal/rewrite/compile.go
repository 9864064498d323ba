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

// searchState holds one exploration run's match lists, one per
// canonical pattern, and the iteration's frozen view. A list is current
// only for the view it was scanned on: each iteration scans every
// pattern a reached rule reads afresh, into the storage of its previous
// list.
type searchState struct {
	pats []patState   // per compiledPat
	view *egraph.View // this iteration's
}

// patState is one canonical pattern's match list and the view it was
// scanned on (nil until one scan completes).
type patState struct {
	matches pattern.Matches
	view    *egraph.View
}
