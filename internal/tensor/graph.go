package tensor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is a node of a tensor computation graph. Following §3.1, a node
// represents the output tensor of its operator, and its children are
// the operator's inputs (including N- and S-typed parameter nodes).
// Nodes are immutable once built; graphs share subgraphs by pointer.
type Node struct {
	Op     Op
	Int    int64  // payload when Op == OpInt; a split's boundary
	Str    string // payload when Op is OpStr/OpInput/OpWeight
	Inputs []*Node
	Meta   *Meta
}

// IsParam reports whether the node is an N- or S-typed parameter.
func (n *Node) IsParam() bool { return n.Op == OpInt || n.Op == OpStr }

// head is the node's operator as the text forms write it: a split
// carries its boundary, as split#N.
func (n *Node) head() string {
	if n.Op == OpSplit {
		return n.Op.String() + "#" + strconv.FormatInt(n.Int, 10)
	}
	return n.Op.String()
}

// String renders the node as an S-expression (inputs recursively).
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	switch n.Op {
	case OpInt:
		fmt.Fprintf(b, "%d", n.Int)
		return
	case OpStr:
		fmt.Fprintf(b, "%q", n.Str)
		return
	case OpInput, OpWeight:
		fmt.Fprintf(b, "(%v %q)", n.Op, n.Str)
		return
	}
	b.WriteByte('(')
	b.WriteString(n.head())
	for _, in := range n.Inputs {
		b.WriteByte(' ')
		in.write(b)
	}
	b.WriteByte(')')
}

// Graph is a single-rooted tensor computation DAG. Outputs holds the
// real output nodes; Root combines them with noop nodes per §3.1.
type Graph struct {
	Root    *Node
	Outputs []*Node
}

// Nodes returns all distinct nodes reachable from the root in
// topological order (inputs before users).
func (g *Graph) Nodes() []*Node {
	var order []*Node
	seen := make(map[*Node]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			visit(in)
		}
		order = append(order, n)
	}
	visit(g.Root)
	return order
}

// NodeCount returns the number of distinct nodes (including parameter
// nodes) reachable from the root.
func (g *Graph) NodeCount() int { return len(g.Nodes()) }

// OpCount returns the number of distinct non-parameter operator nodes.
func (g *Graph) OpCount() int {
	n := 0
	for _, node := range g.Nodes() {
		if !node.IsParam() {
			n++
		}
	}
	return n
}

// Validate re-runs shape inference over the whole graph and checks
// that every node's recorded Meta matches, that the graph is acyclic
// (guaranteed by construction since nodes are immutable), and that the
// root combines all outputs.
func (g *Graph) Validate() error {
	metas := make(map[*Node]*Meta)
	var check func(n *Node) (*Meta, error)
	check = func(n *Node) (*Meta, error) {
		if m, ok := metas[n]; ok {
			return m, nil
		}
		args := make([]*Meta, len(n.Inputs))
		for i, in := range n.Inputs {
			m, err := check(in)
			if err != nil {
				return nil, err
			}
			args[i] = m
		}
		m, err := Infer(n.Op, n.Int, n.Str, args)
		if err != nil {
			return nil, err
		}
		if n.Meta != nil && !n.Meta.Equivalent(m) {
			return nil, fmt.Errorf("tensor: node %v meta drift: recorded %v, inferred %v", n.Op, n.Meta, m)
		}
		metas[n] = m
		return m, nil
	}
	if _, err := check(g.Root); err != nil {
		return err
	}
	for i, out := range g.Outputs {
		if _, ok := metas[out]; !ok {
			return fmt.Errorf("tensor: output %d not reachable from root", i)
		}
	}
	return nil
}

// String renders each output as an S-expression.
func (g *Graph) String() string {
	parts := make([]string, len(g.Outputs))
	for i, o := range g.Outputs {
		parts[i] = o.String()
	}
	return strings.Join(parts, "\n")
}

// OpHistogram counts operator occurrences (excluding parameters),
// useful in tests and reports.
func (g *Graph) OpHistogram() map[Op]int {
	h := make(map[Op]int)
	for _, n := range g.Nodes() {
		if !n.IsParam() {
			h[n.Op]++
		}
	}
	return h
}

// HistogramString renders an op histogram deterministically.
func HistogramString(h map[Op]int) string {
	type kv struct {
		op Op
		n  int
	}
	var items []kv
	for op, n := range h {
		items = append(items, kv{op, n})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].op < items[j].op })
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%v:%d", it.op, it.n)
	}
	return strings.Join(parts, " ")
}
