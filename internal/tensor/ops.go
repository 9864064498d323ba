// Package tensor defines TENSAT's tensor computation graph
// representation (§3.1 of the paper): the operator set of Table 2,
// tensor shapes, a shape-inference engine, and single-rooted DAGs with
// a builder API. It mirrors TASO's representation with the paper's
// modifications (single root via noop, explicit split0/split1).
//
// Each operator's signature (its argument kinds and integer ranges) is
// written once, in the signatures table: Infer, Op.Arity and the rule
// verifier's witnesses all read it.
package tensor

import (
	"fmt"
	"math"
)

// Op enumerates the operators of Table 2 plus the two literal node
// kinds (integer and string parameters are themselves graph nodes,
// matching the paper's typing: N = integer type, S = string type).
type Op uint16

const (
	// OpInt is an integer literal node (N type): strides, axes,
	// padding and activation modes.
	OpInt Op = iota
	// OpStr is a string literal node (S type): axis permutations and
	// shapes, in the Table 2 footnote formats.
	OpStr
	// OpInput is an input tensor identifier: "name@d1 d2 ...".
	OpInput
	// OpWeight is a weight tensor identifier: "name@d1 d2 ...".
	OpWeight
	// OpEwadd is element-wise addition: (T, T) -> T.
	OpEwadd
	// OpEwmul is element-wise multiplication: (T, T) -> T.
	OpEwmul
	// OpMatmul is matrix multiplication with fused activation:
	// (N activation, T, T) -> T.
	OpMatmul
	// OpConv is grouped convolution:
	// (N strideH, N strideW, N padding, N activation, T input, T weight) -> T.
	OpConv
	// OpRelu, OpTanh, OpSigmoid are activations: T -> T.
	OpRelu
	OpTanh
	OpSigmoid
	// OpPoolMax is max pooling:
	// (T input, N kernelH, N kernelW, N strideH, N strideW, N padding, N activation) -> T.
	OpPoolMax
	// OpPoolAvg is average pooling, same signature as OpPoolMax.
	OpPoolAvg
	// OpTranspose permutes axes: (T, S perm) -> T.
	OpTranspose
	// OpEnlarge zero-pads a convolution kernel spatially to match a
	// reference kernel: (T kernel, T refKernel) -> T.
	OpEnlarge
	// OpConcat2..OpConcat5 concatenate along an axis:
	// (N axis, T, ...) -> T. One op per arity as in the paper.
	OpConcat2
	OpConcat3
	OpConcat4
	OpConcat5
	// OpSplit splits a tensor in two on an axis: (N axis, T) -> TT.
	// It cuts at its own payload: in the paper's use the most recent
	// concat's boundary (§3.1 footnote e), see SplitBoundary.
	OpSplit
	// OpSplit0 and OpSplit1 project a tensor tuple: TT -> T.
	OpSplit0
	OpSplit1
	// OpMerge updates a grouped-convolution weight to merge every
	// `count` groups: (T weight, N count) -> T.
	OpMerge
	// OpReshape reshapes a tensor: (T, S shape) -> T.
	OpReshape
	// OpNoop combines two outputs to make the graph single-rooted:
	// (T, T) -> T. Never rewritten; zero cost.
	OpNoop

	// NumOps is the number of ops; keep last.
	NumOps
)

// Activation modes (N-typed parameters), following TASO.
const (
	ActNone    int64 = 0
	ActSigmoid int64 = 1
	ActRelu    int64 = 2
	ActTanh    int64 = 3
)

// Padding modes (N-typed parameters), following TASO.
const (
	PadSame  int64 = 0
	PadValid int64 = 1
)

var opNames = [NumOps]string{
	OpInt:       "int",
	OpStr:       "str",
	OpInput:     "input",
	OpWeight:    "weight",
	OpEwadd:     "ewadd",
	OpEwmul:     "ewmul",
	OpMatmul:    "matmul",
	OpConv:      "conv",
	OpRelu:      "relu",
	OpTanh:      "tanh",
	OpSigmoid:   "sigmoid",
	OpPoolMax:   "poolmax",
	OpPoolAvg:   "poolavg",
	OpTranspose: "transpose",
	OpEnlarge:   "enlarge",
	OpConcat2:   "concat2",
	OpConcat3:   "concat3",
	OpConcat4:   "concat4",
	OpConcat5:   "concat5",
	OpSplit:     "split",
	OpSplit0:    "split0",
	OpSplit1:    "split1",
	OpMerge:     "merge",
	OpReshape:   "reshape",
	OpNoop:      "noop",
}

// String returns the operator's name as used in rule S-expressions.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint16(o))
}

// OpNames returns the full name table, indexed by Op. The slice is
// shared; callers must not modify it.
func OpNames() []string { return opNames[:] }

// OpByName maps rule-text operator names back to Ops.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, name := range opNames {
		m[name] = Op(op)
	}
	return m
}()

// signatures is Table 2 (§3.1): one letter per argument, in order. It
// is the one owner of each operator's arity, argument kinds and integer
// ranges: Infer checks every argument list against it, Arity is its
// length, and the rule verifier draws witnesses by its letters.
//
//	T  a tensor whose values the op reads
//	R  a tensor whose shape only is read (enlarge's reference kernel)
//	P  a tensor tuple (TT)
//	S  a string
//
// Any other letter is an integer, named for the role that bounds it:
// see intRange.
var signatures = [NumOps]string{
	OpEwadd:     "TT",
	OpEwmul:     "TT",
	OpMatmul:    "aTT",
	OpConv:      "sspaTT",
	OpRelu:      "T",
	OpTanh:      "T",
	OpSigmoid:   "T",
	OpPoolMax:   "Tkksspa",
	OpPoolAvg:   "Tkksspa",
	OpTranspose: "TS",
	OpEnlarge:   "TR",
	OpConcat2:   "xTT",
	OpConcat3:   "xTTT",
	OpConcat4:   "xTTTT",
	OpConcat5:   "xTTTTT",
	OpSplit:     "xT",
	OpSplit0:    "P",
	OpSplit1:    "P",
	OpMerge:     "Tc",
	OpReshape:   "TS",
	OpNoop:      "TT",
}

// Signature returns the operator's argument letters (see signatures):
// empty for the literal leaves, which take payloads instead.
func (o Op) Signature() string {
	if o >= NumOps {
		return ""
	}
	return signatures[o]
}

// Arity returns the number of children each operator takes: 0 for the
// literal leaves (OpInt, OpStr, OpInput, OpWeight), which carry
// payloads instead, and -1 for an unknown operator.
func (o Op) Arity() int {
	if o >= NumOps {
		return -1
	}
	return len(signatures[o])
}

// ArgKind is the kind of argument a signature letter asks for.
func ArgKind(letter byte) Kind {
	switch letter {
	case 'T', 'R':
		return KindTensor
	case 'P':
		return KindTuple
	case 'S':
		return KindStr
	}
	return KindInt
}

// intRange bounds the integers of one role: a activation, p padding,
// s stride, k kernel extent, x axis, c merge count.
func intRange(role byte) (lo, hi int64) {
	switch role {
	case 'a':
		return ActNone, ActTanh
	case 'p':
		return PadSame, PadValid
	case 's', 'k':
		return 1, math.MaxInt64
	case 'x':
		return 0, math.MaxInt64
	case 'c':
		return 2, math.MaxInt64
	}
	return math.MinInt64, math.MaxInt64
}

// ConcatOp returns the concat operator for n inputs (2 <= n <= 5).
func ConcatOp(n int) (Op, error) {
	switch n {
	case 2:
		return OpConcat2, nil
	case 3:
		return OpConcat3, nil
	case 4:
		return OpConcat4, nil
	case 5:
		return OpConcat5, nil
	default:
		return 0, fmt.Errorf("tensor: no concat operator for %d inputs", n)
	}
}
