// Package fingerprint computes deterministic, canonical content hashes
// of tensor computation graphs, used as cache keys by the optimization
// service (internal/serve). Two graphs receive the same fingerprint
// exactly when they are structurally identical computations:
//
//   - Node insertion order is irrelevant: the hash walks the DAG in the
//     topological order induced by the outputs, never in builder or
//     memory order.
//   - Input and weight names are irrelevant: identifiers are replaced
//     by (kind, shape, first-occurrence index), so "x" and "input_0"
//     naming the same tensor role collide, while two distinct inputs —
//     or the same shapes wired into different operand positions — do
//     not.
//   - Sharing is significant: a subgraph referenced twice hashes
//     differently from two structurally equal copies, matching the cost
//     model (shared nodes are paid once).
//
// The canonical form is an explicit byte serialization fed to SHA-256;
// no hash-combining shortcuts, so collisions are as unlikely as SHA-256
// collisions.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"tensat/internal/tensor"
)

// Fingerprint is a canonical graph content hash.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint in hex (the wire/cache-key form).
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Graph computes the canonical fingerprint of g.
func Graph(g *tensor.Graph) (Fingerprint, error) {
	f, _, err := Canonical(g)
	return f, err
}

// Canonical walks g once in canonical order and returns both its
// fingerprint (Graph) and its input/weight names (Tensors).
func Canonical(g *tensor.Graph) (Fingerprint, []string, error) {
	var f Fingerprint
	if g == nil || g.Root == nil {
		return f, nil, fmt.Errorf("fingerprint: nil graph")
	}
	c := &canonicalizer{
		h:       sha256.New(),
		ids:     make(map[*tensor.Node]int),
		tensors: make(map[string]int),
	}
	// Hash the output list, canonicalizing each output subgraph in
	// order. Outputs (not the noop-combined root) are the semantic
	// surface: the noop chain shape is an artifact of construction.
	c.str("tensat-graph-v1")
	c.num(len(g.Outputs))
	for _, out := range g.Outputs {
		c.num(c.visit(out))
	}
	if c.err != nil {
		return f, nil, c.err
	}
	c.h.Sum(f[:0])
	return f, c.names, nil
}

// GraphHex is Graph rendered as a hex string.
func GraphHex(g *tensor.Graph) (string, error) {
	f, err := Graph(g)
	if err != nil {
		return "", err
	}
	return f.String(), nil
}

// Key folds an ordered list of content-hash components — typically a
// graph fingerprint, an encoding of the effective options, and the
// content hashes of the optimization profile (rule set, cost model) —
// into one cache key. Components are length-prefixed before hashing,
// so distinct component lists never collide by concatenation
// ambiguity: Key("a", "bc") differs from Key("ab", "c"). Because the
// profile enters through content hashes, not names, identical graphs
// optimized under different profiles never share a key, while a
// profile reloaded with unchanged content keeps its keys.
func Key(parts ...string) string {
	h := sha256.New()
	h.Write([]byte("tensat-key-v1"))
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Tensors returns g's input/weight names in canonical first-occurrence
// order: index i names the same tensor role as index i in any
// structurally identical graph (same fingerprint). Callers use the two
// name lists to translate tensor identifiers between graphs that hash
// alike, e.g. to return a cached result in the requester's vocabulary.
func Tensors(g *tensor.Graph) ([]string, error) {
	_, names, err := Canonical(g)
	return names, err
}

type canonicalizer struct {
	h   hash.Hash
	ids map[*tensor.Node]int // node -> canonical id, assigned in visit order
	// tensors maps an input/weight name to its anonymized index, in
	// order of first occurrence in the canonical walk. The builder
	// hash-conses identical identifiers to one node, but graphs built
	// by hand may alias two nodes to one name; indexing by name keeps
	// those equivalent.
	tensors map[string]int
	names   []string // the keys of tensors, by index
	err     error
}

func (c *canonicalizer) num(v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	c.h.Write(buf[:])
}

func (c *canonicalizer) str(s string) {
	c.num(len(s))
	c.h.Write([]byte(s))
}

// visit assigns canonical ids in a deterministic post-order walk
// (children before parents, outputs in declaration order) and hashes
// each node's record exactly once, at first visit.
func (c *canonicalizer) visit(n *tensor.Node) int {
	if id, ok := c.ids[n]; ok {
		return id
	}
	children := make([]int, len(n.Inputs))
	for i, in := range n.Inputs {
		children[i] = c.visit(in)
	}
	id := len(c.ids)
	c.ids[n] = id
	c.num(id)
	c.num(int(n.Op))
	switch n.Op {
	case tensor.OpInt, tensor.OpSplit: // a split's Int is where it cuts
		c.num(int(n.Int))
	case tensor.OpStr:
		// String parameters (axis permutations, reshape shapes) are
		// semantic; hash them verbatim.
		c.str(n.Str)
	case tensor.OpInput, tensor.OpWeight:
		// Anonymize the name, keep kind + shape + occurrence index.
		name, shape, err := tensor.ParseIdent(n.Str)
		if err != nil {
			if c.err == nil {
				c.err = fmt.Errorf("fingerprint: %w", err)
			}
			return id
		}
		idx, ok := c.tensors[name]
		if !ok {
			idx = len(c.names)
			c.tensors[name] = idx
			c.names = append(c.names, name)
		}
		c.num(idx)
		c.num(len(shape))
		for _, d := range shape {
			c.num(d)
		}
	}
	c.num(len(children))
	for _, ch := range children {
		c.num(ch)
	}
	return id
}
