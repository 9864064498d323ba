// Package rewrite implements TENSAT's exploration phase (§4): the
// saturation runner, the multi-pattern rewrite algorithm (Algorithm 1),
// shape checking via an e-class analysis, and both cycle-filtering
// algorithms (Algorithm 2 and the vanilla variant, §5.2).
package rewrite

import (
	"fmt"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// ShapeAnalysis is the e-class analysis carrying tensor.Meta for every
// e-class (shape, split position, foldability), mirroring TENSAT's use
// of egg's analysis feature for shape checking (§6). Data is *tensor.Meta.
type ShapeAnalysis struct{}

// Make infers the meta of a freshly added node from its children's
// metas. Nodes are only added after shape checking, so inference is
// expected to succeed; a nil result marks an invalid class defensively.
//
//lint:ctxflow-exempt loop is bounded by the node's arity (at most a handful of children)
func (ShapeAnalysis) Make(g *egraph.EGraph, n egraph.Node) any {
	// A stack buffer: the tensor operators take at most seven inputs, and
	// tensor.Infer keeps no reference to args.
	var buf [8]*tensor.Meta
	args := buf[:0]
	if len(n.Children) > len(buf) {
		args = make([]*tensor.Meta, 0, len(n.Children))
	}
	for _, c := range n.Children {
		m, _ := g.Class(c).Data.(*tensor.Meta)
		if m == nil {
			return (*tensor.Meta)(nil)
		}
		args = append(args, m)
	}
	m, err := tensor.Infer(tensor.Op(n.Op), n.Int, n.Str, args)
	if err != nil {
		return (*tensor.Meta)(nil)
	}
	return m
}

// Merge joins two class metas. Equivalent shapes are required by
// soundness of the rules; the join keeps the split marker and
// foldability if either side has them, so that split stays applicable
// and weight-foldability is not lost when classes merge.
func (ShapeAnalysis) Merge(a, b any) (any, bool) {
	am, _ := a.(*tensor.Meta)
	bm, _ := b.(*tensor.Meta)
	if am == nil {
		return bm, bm != nil
	}
	if bm == nil {
		return am, false
	}
	changed := false
	out := am
	if !am.HasSplit && bm.HasSplit {
		out = out.Clone()
		out.HasSplit, out.SplitAxis, out.SplitAt = true, bm.SplitAxis, bm.SplitAt
		changed = true
	}
	if !am.Foldable && bm.Foldable {
		if out == am {
			out = out.Clone()
		}
		out.Foldable = true
		changed = true
	}
	return out, changed
}

// ClassMeta returns the analysis meta of a class (nil if invalid).
func ClassMeta(g *egraph.EGraph, id egraph.ClassID) *tensor.Meta {
	m, _ := g.Class(id).Data.(*tensor.Meta)
	return m
}

// Ingest loads a tensor graph into a fresh e-graph with ShapeAnalysis,
// returning the e-graph, the root e-class, and the node-to-class map.
func Ingest(t *tensor.Graph) (*egraph.EGraph, egraph.ClassID, map[*tensor.Node]egraph.ClassID, error) {
	g := egraph.New(ShapeAnalysis{})
	g.SetOpNames(tensor.OpNames())
	ids := make(map[*tensor.Node]egraph.ClassID)
	var add func(n *tensor.Node) (egraph.ClassID, error)
	add = func(n *tensor.Node) (egraph.ClassID, error) {
		if id, ok := ids[n]; ok {
			return id, nil
		}
		en := egraph.Node{Op: egraph.Op(n.Op), Int: n.Int, Str: n.Str}
		for _, in := range n.Inputs {
			cid, err := add(in)
			if err != nil {
				return 0, err
			}
			en.Children = append(en.Children, cid)
		}
		id := g.Add(en)
		if ClassMeta(g, id) == nil {
			return 0, fmt.Errorf("rewrite: node %v failed shape inference during ingest", n.Op)
		}
		ids[n] = id
		return id, nil
	}
	root, err := add(t.Root)
	if err != nil {
		return nil, 0, nil, err
	}
	return g, root, ids, nil
}
