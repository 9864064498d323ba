package tensor

import (
	"fmt"
	"strconv"
	"strings"
)

// Builder constructs tensor graphs with shape checking at every step.
// Nodes are hash-consed so identical subexpressions share structure
// (maximal sharing makes graph cost well defined and graph hashes
// sharing-insensitive). Errors are sticky: the first inference error
// is recorded and Finish reports it; intermediate methods keep
// returning placeholder nodes so call chains stay readable.
type Builder struct {
	err  error
	memo map[string]*Node
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{memo: make(map[string]*Node)}
}

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(err error) *Node {
	if b.err == nil {
		b.err = err
	}
	return &Node{Op: OpInt, Meta: IntMeta(0)}
}

// mk hash-conses and shape-checks one node.
func (b *Builder) mk(op Op, ival int64, sval string, inputs ...*Node) *Node {
	if b.err != nil {
		return &Node{Op: OpInt, Meta: IntMeta(0)}
	}
	var key strings.Builder
	key.WriteString(strconv.Itoa(int(op)))
	key.WriteByte('|')
	key.WriteString(strconv.FormatInt(ival, 10))
	key.WriteByte('|')
	key.WriteString(sval)
	for _, in := range inputs {
		fmt.Fprintf(&key, "|%p", in)
	}
	if n, ok := b.memo[key.String()]; ok {
		return n
	}
	args := make([]*Meta, len(inputs))
	for i, in := range inputs {
		args[i] = in.Meta
	}
	meta, err := Infer(op, ival, sval, args)
	if err != nil {
		return b.fail(err)
	}
	n := &Node{Op: op, Int: ival, Str: sval, Inputs: inputs, Meta: meta}
	b.memo[key.String()] = n
	return n
}

// IntParam creates (or reuses) an integer parameter node.
func (b *Builder) IntParam(v int64) *Node { return b.mk(OpInt, v, "") }

// StrParam creates (or reuses) a string parameter node.
func (b *Builder) StrParam(s string) *Node { return b.mk(OpStr, 0, s) }

// Input declares an input tensor with the given shape.
func (b *Builder) Input(name string, dims ...int) *Node {
	return b.mk(OpInput, 0, Ident(name, Shape(dims)))
}

// Weight declares a weight tensor with the given shape.
func (b *Builder) Weight(name string, dims ...int) *Node {
	return b.mk(OpWeight, 0, Ident(name, Shape(dims)))
}

// Ewadd is element-wise addition.
func (b *Builder) Ewadd(x, y *Node) *Node { return b.mk(OpEwadd, 0, "", x, y) }

// Ewmul is element-wise multiplication.
func (b *Builder) Ewmul(x, y *Node) *Node { return b.mk(OpEwmul, 0, "", x, y) }

// Matmul multiplies x by y with a fused activation mode.
func (b *Builder) Matmul(act int64, x, y *Node) *Node {
	return b.mk(OpMatmul, 0, "", b.IntParam(act), x, y)
}

// Conv applies a (grouped) convolution.
func (b *Builder) Conv(strideH, strideW, pad, act int64, x, w *Node) *Node {
	return b.mk(OpConv, 0, "",
		b.IntParam(strideH), b.IntParam(strideW), b.IntParam(pad), b.IntParam(act), x, w)
}

// Relu applies a relu activation.
func (b *Builder) Relu(x *Node) *Node { return b.mk(OpRelu, 0, "", x) }

// Tanh applies a tanh activation.
func (b *Builder) Tanh(x *Node) *Node { return b.mk(OpTanh, 0, "", x) }

// Sigmoid applies a sigmoid activation.
func (b *Builder) Sigmoid(x *Node) *Node { return b.mk(OpSigmoid, 0, "", x) }

// PoolMax applies max pooling.
func (b *Builder) PoolMax(x *Node, kh, kw, sh, sw, pad, act int64) *Node {
	return b.mk(OpPoolMax, 0, "", x,
		b.IntParam(kh), b.IntParam(kw), b.IntParam(sh), b.IntParam(sw), b.IntParam(pad), b.IntParam(act))
}

// PoolAvg applies average pooling.
func (b *Builder) PoolAvg(x *Node, kh, kw, sh, sw, pad, act int64) *Node {
	return b.mk(OpPoolAvg, 0, "", x,
		b.IntParam(kh), b.IntParam(kw), b.IntParam(sh), b.IntParam(sw), b.IntParam(pad), b.IntParam(act))
}

// Transpose permutes axes.
func (b *Builder) Transpose(x *Node, perm ...int) *Node {
	return b.mk(OpTranspose, 0, "", x, b.StrParam(PermString(perm)))
}

// Enlarge zero-pads kernel k spatially to the size of ref.
func (b *Builder) Enlarge(k, ref *Node) *Node { return b.mk(OpEnlarge, 0, "", k, ref) }

// Concat concatenates 2..5 tensors along axis.
func (b *Builder) Concat(axis int64, xs ...*Node) *Node {
	op, err := ConcatOp(len(xs))
	if err != nil {
		return b.fail(err)
	}
	inputs := append([]*Node{b.IntParam(axis)}, xs...)
	return b.mk(op, 0, "", inputs...)
}

// Split cuts x on axis at position at, the most recent concat's
// boundary in the paper's use (§3.1), and returns the two halves
// (split0 and split1 of the tuple).
func (b *Builder) Split(axis, at int64, x *Node) (*Node, *Node) {
	tt := b.mk(OpSplit, at, "", b.IntParam(axis), x)
	return b.mk(OpSplit0, 0, "", tt), b.mk(OpSplit1, 0, "", tt)
}

// Merge rewrites a grouped-convolution weight to merge every count groups.
func (b *Builder) Merge(w *Node, count int64) *Node {
	return b.mk(OpMerge, 0, "", w, b.IntParam(count))
}

// Reshape reshapes x to the given dims.
func (b *Builder) Reshape(x *Node, dims ...int) *Node {
	return b.mk(OpReshape, 0, "", x, b.StrParam(Shape(dims).String()))
}

// Finish combines the outputs into a single-rooted Graph (§3.1: final
// outputs are folded together with noop nodes) and validates it.
func (b *Builder) Finish(outputs ...*Node) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("tensor: Finish needs at least one output")
	}
	root := outputs[0]
	for _, out := range outputs[1:] {
		root = b.mk(OpNoop, 0, "", root, out)
	}
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{Root: root, Outputs: append([]*Node(nil), outputs...)}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustFinish is Finish for tests and model constructors with known-good
// shapes; it panics on error.
func (b *Builder) MustFinish(outputs ...*Node) *Graph {
	g, err := b.Finish(outputs...)
	if err != nil {
		panic(err)
	}
	return g
}
