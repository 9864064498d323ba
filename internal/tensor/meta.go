package tensor

import "fmt"

// Kind classifies the value a graph node (or e-class) produces,
// matching the four node types of Table 2.
type Kind uint8

const (
	// KindTensor is a single tensor (T).
	KindTensor Kind = iota
	// KindTuple is a tensor tuple (TT), produced by split.
	KindTuple
	// KindInt is an integer parameter (N).
	KindInt
	// KindStr is a string parameter (S).
	KindStr
)

// String names the kind using the paper's type letters.
func (k Kind) String() string {
	switch k {
	case KindTensor:
		return "T"
	case KindTuple:
		return "TT"
	case KindInt:
		return "N"
	case KindStr:
		return "S"
	}
	return "?"
}

// Meta is the semantic summary of a node: its kind, shape(s), payload
// values, and whether the value is computable from weights alone (so it
// can be pre-computed at inference time, as exploited by the Figure 10
// rewrite). Meta doubles as TENSAT's e-class analysis data (§6). Where a
// split cuts its input is not part of the input's meta: it is the split
// node's own payload (see OpSplit).
type Meta struct {
	Kind   Kind
	Shape  Shape // tensor shape (KindTensor), or first tuple element
	Shape2 Shape // second tuple element (KindTuple only)

	IVal int64  // KindInt payload
	SVal string // KindStr payload

	// Foldable is true when the whole subtree consists of weights and
	// shape/arithmetic ops over weights: its value is constant at
	// inference time, so a cost model may price it at zero.
	Foldable bool
}

// TensorMeta builds a plain tensor Meta.
func TensorMeta(shape Shape) *Meta { return &Meta{Kind: KindTensor, Shape: shape} }

// IntMeta builds an integer-parameter Meta.
func IntMeta(v int64) *Meta { return &Meta{Kind: KindInt, IVal: v} }

// StrMeta builds a string-parameter Meta.
func StrMeta(s string) *Meta { return &Meta{Kind: KindStr, SVal: s} }

// Equivalent reports whether two metas agree on kind, shapes and
// payloads: whether two nodes may share an e-class. Foldability may
// differ between members of an e-class and is joined, not compared.
func (m *Meta) Equivalent(o *Meta) bool {
	return m.Kind == o.Kind && m.Shape.Equal(o.Shape) && m.Shape2.Equal(o.Shape2) &&
		m.IVal == o.IVal && m.SVal == o.SVal
}

// String renders a compact description for error messages.
func (m *Meta) String() string {
	switch m.Kind {
	case KindInt:
		return fmt.Sprintf("N(%d)", m.IVal)
	case KindStr:
		return fmt.Sprintf("S(%q)", m.SVal)
	case KindTuple:
		return fmt.Sprintf("TT([%v],[%v])", m.Shape, m.Shape2)
	default:
		s := fmt.Sprintf("T[%v]", m.Shape)
		if m.Foldable {
			s += "/w"
		}
		return s
	}
}
