// Package tensor defines TENSAT's tensor computation graph
// representation (§3.1 of the paper): the operator set of Table 2,
// tensor shapes, a shape-inference engine, and single-rooted DAGs with
// a builder API. It mirrors TASO's representation with the paper's
// modifications (single root via noop, explicit split0/split1).
package tensor

import "fmt"

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

// Arity returns the number of children each operator takes, or -1 for
// the literal leaves (OpInt, OpStr, OpInput, OpWeight) which take none
// but carry payloads.
func (o Op) Arity() int {
	switch o {
	case OpInt, OpStr, OpInput, OpWeight:
		return 0
	case OpRelu, OpTanh, OpSigmoid, OpSplit0, OpSplit1:
		return 1
	case OpEwadd, OpEwmul, OpTranspose, OpEnlarge, OpSplit, OpMerge, OpReshape, OpNoop:
		return 2
	case OpMatmul, OpConcat2:
		return 3
	case OpConcat3:
		return 4
	case OpConcat4:
		return 5
	case OpConcat5:
		return 6
	case OpPoolMax, OpPoolAvg:
		return 7
	case OpConv:
		return 6
	default:
		return -1
	}
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
