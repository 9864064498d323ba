package pattern

import (
	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// This file preserves the original tree-walking match interpreter as a
// reference implementation. It is NOT used by any production code path
// — SearchView and SearchClasses run the compiled engine (compile.go) —
// and exists solely as the oracle for
// the differential tests and the interpreter-vs-compiled benchmark
// that demonstrate the compiled engine produces identical match lists,
// faster. Do not call it from non-test code.

// Source is the read-only e-graph access the reference interpreter
// needs. *egraph.View implements it.
type Source interface {
	Find(egraph.ClassID) egraph.ClassID
	Nodes(egraph.ClassID) []egraph.ClassID
	Node(egraph.ClassID) *egraph.Node
}

// ReferenceSearchClasses finds matches of p rooted at each class of
// classes, in order, using the reference interpreter. The match list
// (order included) is the contract the compiled engine must reproduce.
func ReferenceSearchClasses(src Source, p *Pat, classes []*egraph.Class) []Match {
	var out []Match
	for _, cls := range classes {
		for _, s := range referenceMatchClass(src, p, cls.ID, Subst{}) {
			out = append(out, Match{Class: cls.ID, Subst: s})
		}
	}
	return out
}

// referenceMatchClass returns all extensions of subst that match p
// against the e-class id (the old matchClass interpreter, verbatim).
func referenceMatchClass(g Source, p *Pat, id egraph.ClassID, subst Subst) []Subst {
	id = g.Find(id)
	if p.IsVar() {
		if bound, ok := subst[p.Var]; ok {
			if g.Find(bound) != id {
				return nil
			}
			return []Subst{subst}
		}
		next := subst.Clone()
		next[p.Var] = id
		return []Subst{next}
	}
	var results []Subst
	for _, nid := range g.Nodes(id) {
		n := g.Node(nid)
		if !p.Accepts(tensor.Op(n.Op), n.Int, n.Str) || len(n.Children) != len(p.Children) {
			continue
		}
		partial := []Subst{subst}
		for i, cp := range p.Children {
			var next []Subst
			for _, s := range partial {
				next = append(next, referenceMatchClass(g, cp, n.Children[i], s)...)
			}
			partial = next
			if len(partial) == 0 {
				break
			}
		}
		results = append(results, partial...)
	}
	return results
}
