package rewrite

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// incrementalRules is a pattern mix exercising the interesting shapes:
// shallow and nested, linear and non-linear, plus shared canonical
// sources (the last two rules canonicalize to the same program).
func incrementalRules() []*Rule {
	return []*Rule{
		MustRule("comm", "(ewadd ?a ?b)", "(ewadd ?b ?a)"),
		MustRule("nest", "(ewmul (ewadd ?x ?y) ?z)", "(ewadd (ewmul ?x ?z) (ewmul ?y ?z))"),
		MustRule("same", "(ewadd ?a ?a)", "(ewmul ?a ?a)"),
		MustRule("deep", "(relu (ewadd ?a ?b))", "(relu (ewadd ?b ?a))"),
		MustRule("alias", "(relu (ewadd ?p ?q))", "(relu (ewadd ?q ?p))"),
	}
}

// mutate applies a random batch of adds and unions to g, returning
// whether anything changed. One operation in six is a union: more, and
// the e-graph collapses into a few classes that every change dirties,
// so an old list's dirty set no longer differs from a newer one's.
func mutate(rng *rand.Rand, g *egraph.EGraph, ids *[]egraph.ClassID) bool {
	changed := false
	pick := func() egraph.ClassID { return (*ids)[rng.Intn(len(*ids))] }
	for i := 0; i < 3+rng.Intn(5); i++ {
		switch rng.Intn(6) {
		case 0, 1, 2:
			before := g.NodeCount()
			*ids = append(*ids, g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), pick(), pick())))
			changed = changed || g.NodeCount() != before
		case 3, 4:
			before := g.NodeCount()
			*ids = append(*ids, g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), pick())))
			changed = changed || g.NodeCount() != before
		default:
			if _, ch := g.Union(pick(), pick()); ch {
				changed = true
			}
		}
	}
	g.Rebuild()
	return changed
}

// TestIncrementalSearchEqualsFullRescan drives the on-demand search
// through several freeze → search → mutate rounds and compares every
// list it brings up to date (dirty re-search merged with the old list)
// against a full search of the same view. From the second round on,
// each round searches only a random subset of the patterns, so a list
// can be several freezes old when it is next searched: its dirty set
// must be the one since its own version, not the latest. This is the
// dirty-set completeness property end to end: a match appearing only
// through a newly-repaired or newly-reparented class is never missed,
// and the merged lists are identical to a full rescan — order and
// bindings included.
func TestIncrementalSearchEqualsFullRescan(t *testing.T) {
	cr := CompileRules(incrementalRules())
	engaged, behind := false, false
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := egraph.New(nil)
		var ids []egraph.ClassID
		for i := 0; i < 30; i++ {
			ids = append(ids, g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), fmt.Sprintf("x%d", i))))
		}
		for i := 0; i < 20; i++ {
			mutate(rng, g, &ids)
		}

		e := searchOnly(g, cr)
		last := make([]int, len(cr.pats)) // the round each list was last searched
		for round := 0; round < 6; round++ {
			e.st.freeze(g)
			full := searchOnly(g, cr) // the oracle: a full search of the same view
			full.st.freeze(g)
			for p := range cr.pats {
				if round > 0 && rng.Intn(2) == 0 {
					continue
				}
				behind = behind || round-last[p] > 1
				last[p] = round
				e.update(p)
				full.update(p)
				a, b := &e.st.pats[p].matches, &full.st.pats[p].matches
				if a.Len() != b.Len() {
					t.Fatalf("seed %d round %d pattern %d: incremental found %d matches, full rescan %d",
						seed, round, p, a.Len(), b.Len())
				}
				for i := range b.Roots {
					if a.Roots[i] != b.Roots[i] {
						t.Fatalf("seed %d round %d pattern %d match %d: class e%d vs e%d",
							seed, round, p, i, a.Roots[i], b.Roots[i])
					}
					for k, id := range b.Bind(i) {
						if a.Bind(i)[k] != id {
							t.Fatalf("seed %d round %d pattern %d match %d: binding %d differs",
								seed, round, p, i, k)
						}
					}
				}
			}
			engaged = engaged || e.ex.Stats.SearchClean > 0 || e.ex.Stats.SearchDirty > 0
			mutate(rng, g, &ids)
		}
	}
	if !engaged || !behind {
		t.Fatalf("incremental path engaged: %v; a list searched more than one freeze after its last search: %v",
			engaged, behind)
	}
}

// TestIncrementalSearchSeesRepairedMatch pins the concrete scenario of
// the dirty-set contract: a pattern match that only exists because a
// union made a descendant class match, with the match root itself
// never directly touched. The incremental search must find it.
func TestIncrementalSearchSeesRepairedMatch(t *testing.T) {
	rules := []*Rule{MustRule("nest", "(ewmul (ewadd ?x ?y) ?z)", "(ewmul ?z (ewadd ?x ?y))")}
	cr := CompileRules(rules)
	g := egraph.New(nil)
	a := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "a"))
	b := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "b"))
	c := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "c"))
	add := g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), a, b))
	mul := g.Add(egraph.NewNode(egraph.Op(tensor.OpEwmul), c, a)) // no match yet: c is a leaf

	e := searchOnly(g, cr)
	st := &e.st
	st.freeze(g)
	e.update(0)
	if n := st.pats[0].matches.Len(); n != 0 {
		t.Fatalf("premature match: %d", n)
	}

	// c ~ add(a,b): now (ewmul (ewadd ?x ?y) ?z) matches at mul, whose
	// class was never unioned or added to.
	g.Union(c, add)
	g.Rebuild()
	st.freeze(g)
	e.update(0)
	if e.ex.Stats.SearchDirty == 0 {
		t.Fatal("incremental path not engaged: mul's class was not re-searched")
	}
	if n := st.pats[0].matches.Len(); n != 1 {
		t.Fatalf("incremental search found %d matches, want 1", n)
	}
	if root := st.pats[0].matches.Roots[0]; g.Find(root) != g.Find(mul) {
		t.Fatalf("match rooted at e%d, want e%d", root, g.Find(mul))
	}
	// Decanonicalize through the compiled rule: slot -> variable name.
	s := pattern.Subst{}
	for k, id := range st.pats[0].matches.Bind(0) {
		s[cr.rules[0].vars[cr.rules[0].sources[0].slots[k]]] = id
	}
	if g.Find(s["?x"]) != g.Find(a) || g.Find(s["?y"]) != g.Find(b) || g.Find(s["?z"]) != g.Find(a) {
		t.Fatalf("unexpected bindings %v", s)
	}
}

// searchOnly starts a run of cr's rules over g for a test that drives
// the search alone.
func searchOnly(g *egraph.EGraph, cr *CompiledRules) *exploration {
	r := NewRunner(cr.Rules)
	r.Compiled = cr
	return r.newExploration(&Explored{G: g}, time.Now(), nil)
}
