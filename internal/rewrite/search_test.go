package rewrite

import (
	"math/rand"
	"testing"
	"time"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// mixedRules is a pattern mix exercising the interesting shapes:
// shallow and nested, linear and non-linear, plus shared canonical
// sources (the last two rules canonicalize to the same program).
func mixedRules() []*Rule {
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
// the e-graph collapses into a few classes.
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

// TestSearchSeesRepairedMatch: a pattern match that only exists
// because a union made a descendant class match, with the match root
// itself never added to or merged. The next iteration's search must
// find it, so a list must not outlive the view it was scanned on.
func TestSearchSeesRepairedMatch(t *testing.T) {
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
	st.view = g.Freeze()
	e.update(0)
	if n := st.pats[0].matches.Len(); n != 0 {
		t.Fatalf("premature match: %d", n)
	}

	// c ~ add(a,b): now (ewmul (ewadd ?x ?y) ?z) matches at mul, whose
	// class was never unioned or added to.
	g.Union(c, add)
	g.Rebuild()
	st.view = g.Freeze()
	e.update(0)
	if n := st.pats[0].matches.Len(); n != 1 {
		t.Fatalf("search found %d matches, want 1", n)
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
