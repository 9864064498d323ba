package pattern

import (
	"fmt"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// The helpers below give the tests the map-keyed, mutable-e-graph
// spelling of the production entry points (SearchClasses over a frozen
// View; Target over binding slots), so each test states its case in
// variable names and still runs the compiled engine.

// Search finds all matches of p anywhere in g, which must be clean.
func Search(g *egraph.EGraph, p *Pat) []Match { return SearchView(g.Freeze(), p) }

// SearchClass finds matches of p rooted at one e-class.
func SearchClass(g *egraph.EGraph, p *Pat, class egraph.ClassID) []Match {
	return SearchClasses(g.Freeze(), p, []*egraph.Class{g.Class(class)})
}

// shapes is the analysis of the tests' e-graphs that need metas: a new
// node's class gets the meta tensor.Infer gives it, as with
// rewrite.ShapeAnalysis's Make (this package cannot import rewrite), and
// a union keeps the receiving class's meta.
type shapes struct{}

func (shapes) Make(g *egraph.EGraph, n egraph.Node) any {
	args := make([]*tensor.Meta, len(n.Children))
	for i, c := range n.Children {
		args[i], _ = g.Class(c).Data.(*tensor.Meta)
	}
	m, _ := tensor.Infer(tensor.Op(n.Op), n.Int, n.Str, args)
	return m
}

func (shapes) Merge(a, _ any) (any, bool) { return a, false }

// Instantiate adds p, with variables substituted, to the e-graph, whose
// classes must carry metas: one walk, then its plan applied.
func Instantiate(g *egraph.EGraph, p *Pat, subst Subst) (egraph.ClassID, error) {
	vars := p.Vars()
	bind := make([]egraph.ClassID, len(vars))
	for i, v := range vars {
		id, ok := subst[v]
		if !ok {
			return 0, fmt.Errorf("pattern: unbound variable %s", v)
		}
		bind[i] = id
	}
	var plan Plan
	if _, _, ok := CompileTarget(p, vars).Walk(g, bind, nil, &plan); !ok {
		return 0, fmt.Errorf("pattern: %s does not shape-check", p)
	}
	return plan.Apply(g), nil
}

// InferMeta shape-checks p given a meta per variable name and out, the
// meta of the class p would join: it walks p over an e-graph holding one
// class per variable, carrying that variable's meta.
func InferMeta(p *Pat, varMeta func(string) (*tensor.Meta, bool), out *tensor.Meta) (*tensor.Meta, error) {
	g := egraph.New(nil)
	vars := p.Vars()
	bind := make([]egraph.ClassID, len(vars))
	for i, v := range vars {
		bind[i] = g.Add(egraph.StrNode(egraph.Op(tensor.OpStr), v))
		g.Class(bind[i]).Data, _ = varMeta(v)
	}
	_, m, ok := CompileTarget(p, vars).Walk(g, bind, out, new(Plan))
	if !ok {
		return nil, fmt.Errorf("pattern: %s does not shape-check", p)
	}
	return m, nil
}
