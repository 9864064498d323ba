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

// Instantiate adds p, with variables substituted, to the e-graph.
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
	return CompileTarget(p, vars).Instantiate(g, bind, nil), nil
}

// InferMeta shape-checks p given a meta per variable name and out, the
// meta of the class p would join.
func InferMeta(p *Pat, varMeta func(string) (*tensor.Meta, bool), out *tensor.Meta) (*tensor.Meta, error) {
	vars := p.Vars()
	metas := make([]*tensor.Meta, len(vars))
	for i, v := range vars {
		metas[i], _ = varMeta(v)
	}
	return CompileTarget(p, vars).InferMeta(metas, out)
}
