package egraph

import (
	"fmt"
	"strings"
)

// ClassID identifies an e-class. IDs are only meaningful within the
// e-graph that issued them, and must be canonicalized through Find
// after unions.
type ClassID int32

// Op identifies an operator of the client language. The e-graph itself
// is language-agnostic: clients register a name table via SetOpNames for
// readable dumps, but equality and hashing use only the numeric value.
type Op uint16

// Node is an e-node: an operator applied to children e-classes, plus
// optional integer/string payloads for literal leaves (the tensor
// language of Table 2 uses Int for stride/axis/activation parameters and
// Str for permutations, shapes, and tensor identifiers).
type Node struct {
	Op       Op
	Int      int64
	Str      string
	Children []ClassID
}

// Leaf constructs a childless node.
func Leaf(op Op) Node { return Node{Op: op} }

// IntNode constructs an integer-literal node.
func IntNode(op Op, v int64) Node { return Node{Op: op, Int: v} }

// StrNode constructs a string-literal node.
func StrNode(op Op, s string) Node { return Node{Op: op, Str: s} }

// NewNode constructs an operator node with the given children.
func NewNode(op Op, children ...ClassID) Node {
	return Node{Op: op, Children: children}
}

// hash mixes a node's operator, payloads and children into the value
// the hash-cons memo buckets by. Equal nodes hash equally; the memo
// settles collisions with Equal.
func (n *Node) hash() uint64 {
	const prime = 0x100000001b3
	h := (uint64(n.Op)+0x9e3779b97f4a7c15)*prime ^ uint64(n.Int)
	for i := 0; i < len(n.Str); i++ {
		h = (h ^ uint64(n.Str[i])) * prime
	}
	for _, c := range n.Children {
		h = (h ^ uint64(c)) * prime
	}
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>32
}

// Equal reports structural equality of two nodes (assuming both are
// canonical with respect to the same e-graph).
func (n Node) Equal(m Node) bool {
	if n.Op != m.Op || n.Int != m.Int || n.Str != m.Str || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if n.Children[i] != m.Children[i] {
			return false
		}
	}
	return true
}

// String renders the node using the e-graph-independent default
// formatting (numeric op). EGraph.NodeString gives named output.
func (n Node) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "op%d", n.Op)
	if n.Int != 0 {
		fmt.Fprintf(&b, "#%d", n.Int)
	}
	if n.Str != "" {
		fmt.Fprintf(&b, "%q", n.Str)
	}
	if len(n.Children) > 0 {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "e%d", c)
		}
		b.WriteByte(')')
	}
	return b.String()
}
