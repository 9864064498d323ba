package tensor

import (
	"fmt"
	"strconv"
	"strings"

	"tensat/internal/sexpr"
)

// MarshalText renders the graph in a stable textual format: one
// S-expression per output line, with shared subgraphs written once and
// referenced through let-bindings:
//
//	(let t0 (conv 1 1 0 2 (input "x@1 3 32 32") (weight "w@8 3 3 3")))
//	(output (relu t0))
//	(output (poolmax t0 2 2 2 2 1 0))
//	(output (split0 (split#3 1 (input "y@1 8 4 4")))) ; a split cuts at its #N
//
// A node is bound when it is referenced more than once (so the DAG
// round-trips exactly, sharing included).
func (g *Graph) MarshalText() ([]byte, error) {
	refs := make(map[*Node]int)
	var count func(n *Node)
	count = func(n *Node) {
		refs[n]++
		if refs[n] > 1 {
			return
		}
		for _, in := range n.Inputs {
			count(in)
		}
	}
	for _, o := range g.Outputs {
		count(o)
	}

	names := make(map[*Node]string)
	var b strings.Builder
	var render func(n *Node) string
	render = func(n *Node) string {
		if name, ok := names[n]; ok {
			return name
		}
		var expr string
		switch n.Op {
		case OpInt:
			expr = strconv.FormatInt(n.Int, 10)
		case OpStr:
			expr = strconv.Quote(n.Str)
		case OpInput, OpWeight:
			expr = fmt.Sprintf("(%v %q)", n.Op, n.Str)
		default:
			parts := make([]string, 0, len(n.Inputs)+1)
			parts = append(parts, n.head())
			for _, in := range n.Inputs {
				parts = append(parts, render(in))
			}
			expr = "(" + strings.Join(parts, " ") + ")"
		}
		// Bind shared non-leaf tensors to a name.
		if refs[n] > 1 && !n.IsParam() && n.Op != OpInput && n.Op != OpWeight {
			name := fmt.Sprintf("t%d", len(names))
			names[n] = name
			fmt.Fprintf(&b, "(let %s %s)\n", name, expr)
			return name
		}
		return expr
	}
	for _, o := range g.Outputs {
		fmt.Fprintf(&b, "(output %s)\n", render(o))
	}
	return []byte(b.String()), nil
}

// UnmarshalGraph parses the MarshalText format back into a Graph.
func UnmarshalGraph(data []byte) (*Graph, error) {
	exprs, err := sexpr.ParseMany(string(data))
	if err != nil {
		return nil, err
	}
	b := NewBuilder()
	bound := make(map[string]*Node)
	var outputs []*Node

	var build func(e *sexpr.Expr) (*Node, error)
	build = func(e *sexpr.Expr) (*Node, error) {
		if e.IsAtom() {
			if n, ok := bound[e.Atom]; ok {
				return n, nil
			}
			if v, err := strconv.ParseInt(e.Atom, 10, 64); err == nil {
				return b.IntParam(v), nil
			}
			return b.StrParam(e.Atom), nil
		}
		if len(e.List) == 0 {
			return nil, fmt.Errorf("tensor: empty expression")
		}
		head := e.List[0]
		if !head.IsAtom() {
			return nil, fmt.Errorf("tensor: expression head must be an atom")
		}
		name, at, bounded := strings.Cut(head.Atom, "#")
		op, ok := OpByName[name]
		if !ok || bounded != (op == OpSplit) {
			return nil, fmt.Errorf("tensor: unknown operator %q (a split is written split#N, N where it cuts)", head.Atom)
		}
		var boundary int64
		if bounded {
			var err error
			if boundary, err = strconv.ParseInt(at, 10, 64); err != nil {
				return nil, fmt.Errorf("tensor: split boundary %q: %w", at, err)
			}
		}
		if op == OpInput || op == OpWeight {
			if len(e.List) != 2 || !e.List[1].IsAtom() {
				return nil, fmt.Errorf("tensor: %s wants one identifier", head.Atom)
			}
			name, shape, err := ParseIdent(e.List[1].Atom)
			if err != nil {
				return nil, err
			}
			if op == OpInput {
				return b.Input(name, shape...), nil
			}
			return b.Weight(name, shape...), nil
		}
		inputs := make([]*Node, 0, len(e.List)-1)
		for _, c := range e.List[1:] {
			in, err := build(c)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
		n := b.Raw(op, boundary, inputs...)
		if err := b.Err(); err != nil {
			return nil, err
		}
		return n, nil
	}

	for _, e := range exprs {
		if e.IsAtom() || len(e.List) < 2 || !e.List[0].IsAtom() {
			return nil, fmt.Errorf("tensor: top-level forms must be (let ...) or (output ...)")
		}
		switch e.List[0].Atom {
		case "let":
			if len(e.List) != 3 || !e.List[1].IsAtom() {
				return nil, fmt.Errorf("tensor: malformed let")
			}
			n, err := build(e.List[2])
			if err != nil {
				return nil, err
			}
			bound[e.List[1].Atom] = n
		case "output":
			if len(e.List) != 2 {
				return nil, fmt.Errorf("tensor: malformed output")
			}
			n, err := build(e.List[1])
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, n)
		default:
			return nil, fmt.Errorf("tensor: unknown top-level form %q", e.List[0].Atom)
		}
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("tensor: no (output ...) forms")
	}
	return b.Finish(outputs...)
}

// Raw builds a node for op over pre-built inputs (shape-checked); used
// by deserialization; at is a split's boundary, 0 for other ops.
// Literal payload ops must go through IntParam, StrParam, Input or
// Weight instead.
func (b *Builder) Raw(op Op, at int64, inputs ...*Node) *Node {
	switch op {
	case OpInt, OpStr, OpInput, OpWeight:
		return b.fail(fmt.Errorf("tensor: Raw cannot build literal op %v", op))
	}
	return b.mk(op, at, "", inputs...)
}

// Dot renders the graph in Graphviz dot format for visualization.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph tensorgraph {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n")
	ids := make(map[*Node]int)
	for i, n := range g.Nodes() {
		ids[n] = i
		label := n.head()
		switch n.Op {
		case OpInt:
			label = strconv.FormatInt(n.Int, 10)
		case OpStr:
			label = strconv.Quote(n.Str)
		case OpInput, OpWeight:
			label = fmt.Sprintf("%v %s", n.Op, n.Str)
		default:
			if n.Meta != nil && n.Meta.Kind == KindTensor {
				label = fmt.Sprintf("%v\\n[%v]", n.Op, n.Meta.Shape)
			}
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", i, label)
	}
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", ids[in], ids[n])
		}
	}
	b.WriteString("}\n")
	return b.String()
}
