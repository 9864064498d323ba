// Package taso implements the baseline TENSAT compares against: the
// sequential backtracking search of TASO (Jia et al. 2019a). Rewrite
// rules are applied destructively one at a time on tensor graphs; a
// cost-ordered queue explores candidate graphs, keeping any whose cost
// stays below alpha times the best seen, for n iterations. Unlike the
// e-graph approach this forgets the original term at each step, which
// is exactly the phase-ordering weakness the paper addresses.
package taso

import (
	"fmt"

	"tensat/internal/pattern"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// Binding maps pattern variables to concrete graph nodes.
type Binding map[string]*tensor.Node

// GraphMatch is one joint occurrence of a rule's source patterns.
type GraphMatch struct {
	Rule    *rewrite.Rule
	Outputs []*tensor.Node // matched output node per source pattern
	Bind    Binding
}

// matchPattern matches p against node n, extending bind; returns false
// (without guaranteeing bind rollback) when the match fails, so callers
// pass a copy when they need to backtrack.
func matchPattern(p *pattern.Pat, n *tensor.Node, bind Binding) bool {
	if p.IsVar() {
		if prev, ok := bind[p.Var]; ok {
			return prev == n
		}
		bind[p.Var] = n
		return true
	}
	if !p.Accepts(n.Op, n.Int, n.Str) {
		return false
	}
	if len(n.Inputs) != len(p.Children) {
		return false
	}
	for i, c := range p.Children {
		if !matchPattern(c, n.Inputs[i], bind) {
			return false
		}
	}
	return true
}

// FindMatches enumerates all matches of rule in g, combining source
// patterns with shared-variable consistency (the graph-level analogue
// of Algorithm 1's COMPATIBLE check). maxMatches bounds the output.
func FindMatches(g *tensor.Graph, rule *rewrite.Rule, maxMatches int) []GraphMatch {
	nodes := g.Nodes()
	perSource := make([][]GraphMatch, len(rule.Sources))
	for i, src := range rule.Sources {
		for _, n := range nodes {
			bind := Binding{}
			if matchPattern(src, n, bind) {
				perSource[i] = append(perSource[i], GraphMatch{Outputs: []*tensor.Node{n}, Bind: bind})
			}
		}
		if len(perSource[i]) == 0 {
			return nil
		}
	}
	var out []GraphMatch
	var rec func(i int, acc GraphMatch)
	rec = func(i int, acc GraphMatch) {
		if maxMatches > 0 && len(out) >= maxMatches {
			return
		}
		if i == len(perSource) {
			m := GraphMatch{Rule: rule, Outputs: append([]*tensor.Node(nil), acc.Outputs...), Bind: acc.Bind}
			out = append(out, m)
			return
		}
		for _, cand := range perSource[i] {
			merged := make(Binding, len(acc.Bind)+len(cand.Bind))
			for k, v := range acc.Bind {
				merged[k] = v
			}
			ok := true
			for k, v := range cand.Bind {
				if prev, bound := merged[k]; bound && prev != v {
					ok = false
					break
				}
				merged[k] = v
			}
			if !ok {
				continue
			}
			rec(i+1, GraphMatch{Outputs: append(acc.Outputs, cand.Outputs[0]), Bind: merged})
		}
	}
	rec(0, GraphMatch{})
	return out
}

// instantiate builds the target pattern as graph nodes through b; proj
// is the root's op and out the node the target replaces. A split under
// a split0 or split1 root cuts where tensor.SplitBoundary says for out.
func instantiate(b *tensor.Builder, p *pattern.Pat, bind Binding, proj tensor.Op, out *tensor.Node) (*tensor.Node, error) {
	switch {
	case p.IsVar():
		n, ok := bind[p.Var]
		if !ok {
			return nil, fmt.Errorf("taso: unbound variable %s", p.Var)
		}
		return n, nil
	case p.Op == tensor.OpInt:
		return b.IntParam(p.Int), nil
	case p.Op == tensor.OpStr:
		return b.StrParam(p.Str), nil
	case p.Op == tensor.OpInput || p.Op == tensor.OpWeight:
		name, shape, err := tensor.ParseIdent(p.Str)
		if err != nil {
			return nil, err
		}
		if p.Op == tensor.OpInput {
			return b.Input(name, shape...), nil
		}
		return b.Weight(name, shape...), nil
	}
	below := proj
	if p.Op != proj {
		below = 0
	}
	inputs := make([]*tensor.Node, 0, len(p.Children))
	for _, c := range p.Children {
		in, err := instantiate(b, c, bind, below, out)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	at := p.Int
	if p.Op == tensor.OpSplit {
		at = tensor.SplitBoundary(proj, inputs[0].Meta, inputs[1].Meta, out.Meta)
	}
	return b.Raw(p.Op, at, inputs...), b.Err()
}

// Apply produces a new graph with the match's output nodes replaced by
// the rule targets (destructive substitution on an immutable DAG: all
// ancestors are rebuilt, hash-consed by a tensor.Builder). Returns nil
// if the rule's condition fails on the bound nodes' metas, a target is
// ill-shaped, or the substitution would create a cycle (a target node
// reaching a replaced output through an argument path).
func Apply(g *tensor.Graph, m GraphMatch) (*tensor.Graph, error) {
	meta := func(v string) *tensor.Meta {
		if n, ok := m.Bind[v]; ok {
			return n.Meta
		}
		return nil
	}
	if m.Rule.Cond != nil && !m.Rule.Cond(meta) {
		return nil, fmt.Errorf("taso: %s: condition fails", m.Rule.Name)
	}
	b := tensor.NewBuilder()
	replace := make(map[*tensor.Node]*tensor.Node, len(m.Outputs))
	for i, out := range m.Outputs {
		tn, err := instantiate(b, m.Rule.Targets[i], m.Bind, m.Rule.Targets[i].Op, out)
		if err != nil {
			return nil, err
		}
		if !tn.Meta.Equivalent(out.Meta) {
			return nil, fmt.Errorf("taso: %s rewrites %v into %v", m.Rule.Name, out.Meta, tn.Meta)
		}
		replace[out] = tn
	}
	// Rebuild the DAG from the root, substituting matched outputs.
	memo := make(map[*tensor.Node]*tensor.Node)
	var rebuild func(n *tensor.Node) (*tensor.Node, error)
	rebuild = func(n *tensor.Node) (*tensor.Node, error) {
		if r, ok := memo[n]; ok {
			return r, nil
		}
		if r, ok := replace[n]; ok {
			memo[n] = r
			return r, nil
		}
		changed := false
		inputs := make([]*tensor.Node, len(n.Inputs))
		for i, in := range n.Inputs {
			r, err := rebuild(in)
			if err != nil {
				return nil, err
			}
			inputs[i] = r
			if r != in {
				changed = true
			}
		}
		if !changed {
			memo[n] = n
			return n, nil
		}
		r := b.Raw(n.Op, n.Int, inputs...)
		if err := b.Err(); err != nil {
			return nil, err
		}
		memo[n] = r
		return r, nil
	}
	root, err := rebuild(g.Root)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Node, len(g.Outputs))
	for i, o := range g.Outputs {
		r, err := rebuild(o)
		if err != nil {
			return nil, err
		}
		outs[i] = r
	}
	ng := &tensor.Graph{Root: root, Outputs: outs}
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	return ng, nil
}
