package tensor

import "fmt"

// Infer computes the Meta of an operator applied to argument metas.
// It is the single shape-inference engine shared by the graph builder,
// the e-class analysis, and the rewrite engine's shape checking (§4:
// "Before applying a rewrite at a found match, we perform a shape
// checking to verify if the tensor shapes in the target pattern are
// compatible."). ival/sval are the payloads of literal ops, ival is
// split's boundary, and both are ignored for the rest.
func Infer(op Op, ival int64, sval string, args []*Meta) (*Meta, error) {
	if want := op.Arity(); want >= 0 && len(args) != want {
		return nil, fmt.Errorf("tensor: %v expects %d arguments, got %d", op, want, len(args))
	}
	for i, a := range args {
		if a == nil {
			return nil, fmt.Errorf("tensor: %v argument %d is nil", op, i)
		}
	}
	switch op {
	case OpInt:
		return IntMeta(ival), nil
	case OpStr:
		return StrMeta(sval), nil
	case OpInput, OpWeight:
		_, shape, err := ParseIdent(sval)
		if err != nil {
			return nil, err
		}
		m := TensorMeta(shape)
		m.Foldable = op == OpWeight
		return m, nil
	case OpEwadd, OpEwmul:
		a, err := tensorArg(op, args, 0)
		if err != nil {
			return nil, err
		}
		b, err := tensorArg(op, args, 1)
		if err != nil {
			return nil, err
		}
		if !a.Shape.Equal(b.Shape) {
			return nil, fmt.Errorf("tensor: %v shape mismatch %v vs %v", op, a.Shape, b.Shape)
		}
		m := TensorMeta(a.Shape.Clone())
		m.Foldable = a.Foldable && b.Foldable
		return m, nil
	case OpMatmul:
		if err := intArgIn(op, args, 0, "activation", ActNone, ActTanh); err != nil {
			return nil, err
		}
		a, err := tensorArg(op, args, 1)
		if err != nil {
			return nil, err
		}
		b, err := tensorArg(op, args, 2)
		if err != nil {
			return nil, err
		}
		return inferMatmul(a, b)
	case OpConv:
		return inferConv(args)
	case OpRelu, OpTanh, OpSigmoid:
		a, err := tensorArg(op, args, 0)
		if err != nil {
			return nil, err
		}
		m := TensorMeta(a.Shape.Clone())
		m.Foldable = a.Foldable
		return m, nil
	case OpPoolMax, OpPoolAvg:
		return inferPool(op, args)
	case OpTranspose:
		return inferTranspose(args)
	case OpEnlarge:
		return inferEnlarge(args)
	case OpConcat2, OpConcat3, OpConcat4, OpConcat5:
		return inferConcat(op, args)
	case OpSplit:
		return inferSplit(ival, args)
	case OpSplit0, OpSplit1:
		a := args[0]
		if a.Kind != KindTuple {
			return nil, fmt.Errorf("tensor: %v wants a tensor tuple, got %v", op, a)
		}
		shape := a.Shape
		if op == OpSplit1 {
			shape = a.Shape2
		}
		m := TensorMeta(shape.Clone())
		m.Foldable = a.Foldable
		return m, nil
	case OpMerge:
		return inferMerge(args)
	case OpReshape:
		return inferReshape(args)
	case OpNoop:
		a, err := tensorArg(op, args, 0)
		if err != nil {
			return nil, err
		}
		b, err := tensorArg(op, args, 1)
		if err != nil {
			return nil, err
		}
		m := TensorMeta(nil)
		m.Foldable = a.Foldable && b.Foldable
		return m, nil
	default:
		return nil, fmt.Errorf("tensor: unknown operator %v", op)
	}
}

func tensorArg(op Op, args []*Meta, i int) (*Meta, error) {
	if args[i].Kind != KindTensor {
		return nil, fmt.Errorf("tensor: %v argument %d must be a tensor, got %v", op, i, args[i])
	}
	return args[i], nil
}

func intArg(op Op, args []*Meta, i int, what string) (int64, error) {
	if args[i].Kind != KindInt {
		return 0, fmt.Errorf("tensor: %v argument %d (%s) must be an integer, got %v", op, i, what, args[i])
	}
	return args[i].IVal, nil
}

func intArgIn(op Op, args []*Meta, i int, what string, lo, hi int64) error {
	v, err := intArg(op, args, i, what)
	if err != nil {
		return err
	}
	if v < lo || v > hi {
		return fmt.Errorf("tensor: %v %s = %d out of range [%d,%d]", op, what, v, lo, hi)
	}
	return nil
}

func inferMatmul(a, b *Meta) (*Meta, error) {
	if len(a.Shape) < 2 || len(b.Shape) < 2 || len(a.Shape) != len(b.Shape) {
		return nil, fmt.Errorf("tensor: matmul rank mismatch %v x %v", a.Shape, b.Shape)
	}
	n := len(a.Shape)
	for i := 0; i < n-2; i++ {
		if a.Shape[i] != b.Shape[i] {
			return nil, fmt.Errorf("tensor: matmul batch dims differ: %v x %v", a.Shape, b.Shape)
		}
	}
	if a.Shape[n-1] != b.Shape[n-2] {
		return nil, fmt.Errorf("tensor: matmul inner dims differ: %v x %v", a.Shape, b.Shape)
	}
	out := a.Shape.Clone()
	out[n-1] = b.Shape[n-1]
	m := TensorMeta(out)
	m.Foldable = a.Foldable && b.Foldable
	return m, nil
}

func inferConv(args []*Meta) (*Meta, error) {
	sh, err := intArg(OpConv, args, 0, "strideH")
	if err != nil {
		return nil, err
	}
	sw, err := intArg(OpConv, args, 1, "strideW")
	if err != nil {
		return nil, err
	}
	if sh < 1 || sw < 1 {
		return nil, fmt.Errorf("tensor: conv strides must be >= 1, got %d,%d", sh, sw)
	}
	pad, err := intArg(OpConv, args, 2, "padding")
	if err != nil {
		return nil, err
	}
	if pad != PadSame && pad != PadValid {
		return nil, fmt.Errorf("tensor: conv padding mode %d invalid", pad)
	}
	if err := intArgIn(OpConv, args, 3, "activation", ActNone, ActTanh); err != nil {
		return nil, err
	}
	x, err := tensorArg(OpConv, args, 4)
	if err != nil {
		return nil, err
	}
	w, err := tensorArg(OpConv, args, 5)
	if err != nil {
		return nil, err
	}
	if len(x.Shape) != 4 || len(w.Shape) != 4 {
		return nil, fmt.Errorf("tensor: conv wants NCHW input and OIHW weight, got %v, %v", x.Shape, w.Shape)
	}
	n, c, h, wid := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, cinPG, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if cinPG == 0 || c%cinPG != 0 {
		return nil, fmt.Errorf("tensor: conv channels %d not divisible by weight in-channels %d", c, cinPG)
	}
	groups := c / cinPG
	if cout%groups != 0 {
		return nil, fmt.Errorf("tensor: conv out-channels %d not divisible by groups %d", cout, groups)
	}
	oh, ow, err := spatialOut(h, wid, kh, kw, int(sh), int(sw), pad)
	if err != nil {
		return nil, err
	}
	m := TensorMeta(Shape{n, cout, oh, ow})
	m.Foldable = x.Foldable && w.Foldable
	return m, nil
}

func spatialOut(h, w, kh, kw, sh, sw int, pad int64) (int, int, error) {
	if kh <= 0 || kw <= 0 {
		return 0, 0, fmt.Errorf("tensor: kernel %dx%d invalid", kh, kw)
	}
	if pad == PadSame {
		return (h + sh - 1) / sh, (w + sw - 1) / sw, nil
	}
	if h < kh || w < kw {
		return 0, 0, fmt.Errorf("tensor: valid padding with kernel %dx%d larger than input %dx%d", kh, kw, h, w)
	}
	return (h-kh)/sh + 1, (w-kw)/sw + 1, nil
}

func inferPool(op Op, args []*Meta) (*Meta, error) {
	x, err := tensorArg(op, args, 0)
	if err != nil {
		return nil, err
	}
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("tensor: %v wants NCHW input, got %v", op, x.Shape)
	}
	kh, err := intArg(op, args, 1, "kernelH")
	if err != nil {
		return nil, err
	}
	kw, err := intArg(op, args, 2, "kernelW")
	if err != nil {
		return nil, err
	}
	sh, err := intArg(op, args, 3, "strideH")
	if err != nil {
		return nil, err
	}
	sw, err := intArg(op, args, 4, "strideW")
	if err != nil {
		return nil, err
	}
	pad, err := intArg(op, args, 5, "padding")
	if err != nil {
		return nil, err
	}
	if pad != PadSame && pad != PadValid {
		return nil, fmt.Errorf("tensor: %v padding mode %d invalid", op, pad)
	}
	if err := intArgIn(op, args, 6, "activation", ActNone, ActTanh); err != nil {
		return nil, err
	}
	if kh < 1 || kw < 1 || sh < 1 || sw < 1 {
		return nil, fmt.Errorf("tensor: %v kernel/stride must be >= 1", op)
	}
	oh, ow, err := spatialOut(x.Shape[2], x.Shape[3], int(kh), int(kw), int(sh), int(sw), pad)
	if err != nil {
		return nil, err
	}
	m := TensorMeta(Shape{x.Shape[0], x.Shape[1], oh, ow})
	m.Foldable = x.Foldable
	return m, nil
}

func inferTranspose(args []*Meta) (*Meta, error) {
	x, err := tensorArg(OpTranspose, args, 0)
	if err != nil {
		return nil, err
	}
	if args[1].Kind != KindStr {
		return nil, fmt.Errorf("tensor: transpose permutation must be a string, got %v", args[1])
	}
	perm, err := ParsePerm(args[1].SVal)
	if err != nil {
		return nil, err
	}
	if len(perm) != len(x.Shape) {
		return nil, fmt.Errorf("tensor: transpose permutation rank %d != tensor rank %d", len(perm), len(x.Shape))
	}
	out := make(Shape, len(perm))
	for i, a := range perm {
		out[i] = x.Shape[a]
	}
	m := TensorMeta(out)
	m.Foldable = x.Foldable
	return m, nil
}

func inferEnlarge(args []*Meta) (*Meta, error) {
	k, err := tensorArg(OpEnlarge, args, 0)
	if err != nil {
		return nil, err
	}
	ref, err := tensorArg(OpEnlarge, args, 1)
	if err != nil {
		return nil, err
	}
	if len(k.Shape) != 4 || len(ref.Shape) != 4 {
		return nil, fmt.Errorf("tensor: enlarge wants OIHW kernels, got %v, %v", k.Shape, ref.Shape)
	}
	if k.Shape[2] > ref.Shape[2] || k.Shape[3] > ref.Shape[3] {
		return nil, fmt.Errorf("tensor: enlarge kernel %v larger than reference %v", k.Shape, ref.Shape)
	}
	m := TensorMeta(Shape{k.Shape[0], k.Shape[1], ref.Shape[2], ref.Shape[3]})
	m.Foldable = k.Foldable
	return m, nil
}

func inferConcat(op Op, args []*Meta) (*Meta, error) {
	axis, err := intArg(op, args, 0, "axis")
	if err != nil {
		return nil, err
	}
	first, err := tensorArg(op, args, 1)
	if err != nil {
		return nil, err
	}
	rank := len(first.Shape)
	if axis < 0 || int(axis) >= rank {
		return nil, fmt.Errorf("tensor: concat axis %d out of range for rank %d", axis, rank)
	}
	out := first.Shape.Clone()
	foldable := first.Foldable
	for i := 2; i < len(args); i++ {
		t, err := tensorArg(op, args, i)
		if err != nil {
			return nil, err
		}
		if len(t.Shape) != rank {
			return nil, fmt.Errorf("tensor: concat rank mismatch %v vs %v", first.Shape, t.Shape)
		}
		for d := 0; d < rank; d++ {
			if d == int(axis) {
				continue
			}
			if t.Shape[d] != out[d] {
				return nil, fmt.Errorf("tensor: concat dim %d mismatch: %v vs %v", d, out, t.Shape)
			}
		}
		out[axis] += t.Shape[axis]
		foldable = foldable && t.Foldable
	}
	m := TensorMeta(out)
	m.Foldable = foldable
	return m, nil
}

func inferSplit(at int64, args []*Meta) (*Meta, error) {
	axis, err := intArg(OpSplit, args, 0, "axis")
	if err != nil {
		return nil, err
	}
	x, err := tensorArg(OpSplit, args, 1)
	if err != nil {
		return nil, err
	}
	if axis < 0 || int(axis) >= len(x.Shape) {
		return nil, fmt.Errorf("tensor: split axis %d out of range for rank %d", axis, len(x.Shape))
	}
	if at <= 0 || at >= int64(x.Shape[axis]) {
		return nil, fmt.Errorf("tensor: split position %d out of range for dim %d", at, x.Shape[axis])
	}
	s1 := x.Shape.Clone()
	s1[axis] = int(at)
	s2 := x.Shape.Clone()
	s2[axis] = x.Shape[axis] - int(at)
	m := &Meta{Kind: KindTuple, Shape: s1, Shape2: s2, Foldable: x.Foldable}
	return m, nil
}

// SplitBoundary is where a split on axis of body must cut for its proj
// half (OpSplit0 or OpSplit1) to have out's extent on that axis: the
// boundary a rule application gives a split it builds, read off the
// tensor the half stands for. It returns 0, which split inference
// rejects, for any other proj and for metas that fit no such split.
func SplitBoundary(proj Op, axis, body, out *Meta) int64 {
	if (proj != OpSplit0 && proj != OpSplit1) || axis == nil || body == nil || out == nil ||
		axis.Kind != KindInt || body.Kind != KindTensor || out.Kind != KindTensor ||
		axis.IVal < 0 || int(axis.IVal) >= min(len(body.Shape), len(out.Shape)) {
		return 0
	}
	if proj == OpSplit1 {
		return int64(body.Shape[axis.IVal] - out.Shape[axis.IVal])
	}
	return int64(out.Shape[axis.IVal])
}

func inferMerge(args []*Meta) (*Meta, error) {
	w, err := tensorArg(OpMerge, args, 0)
	if err != nil {
		return nil, err
	}
	count, err := intArg(OpMerge, args, 1, "count")
	if err != nil {
		return nil, err
	}
	if len(w.Shape) != 4 {
		return nil, fmt.Errorf("tensor: merge wants an OIHW weight, got %v", w.Shape)
	}
	if count < 2 {
		return nil, fmt.Errorf("tensor: merge count %d must be >= 2", count)
	}
	// merge's zero-pad band layout is defined by the original group
	// structure, recoverable from the weight alone only when the conv
	// has as many output channels as input channels (cout == C, so
	// groups = cout/cinPG) — the ResNeXt/depthwise case TASO's
	// merge_gconv targets. The rewrite's condition enforces cout == C.
	cout, cinPG := w.Shape[0], w.Shape[1]
	if cout%cinPG != 0 {
		return nil, fmt.Errorf("tensor: merge needs cinPG %d dividing out-channels %d", cinPG, cout)
	}
	groups := cout / cinPG
	if groups%int(count) != 0 {
		return nil, fmt.Errorf("tensor: merge count %d does not divide groups %d", count, groups)
	}
	m := TensorMeta(Shape{w.Shape[0], w.Shape[1] * int(count), w.Shape[2], w.Shape[3]})
	m.Foldable = w.Foldable
	return m, nil
}

func inferReshape(args []*Meta) (*Meta, error) {
	x, err := tensorArg(OpReshape, args, 0)
	if err != nil {
		return nil, err
	}
	if args[1].Kind != KindStr {
		return nil, fmt.Errorf("tensor: reshape target must be a string, got %v", args[1])
	}
	shape, err := ParseShape(args[1].SVal)
	if err != nil {
		return nil, err
	}
	if shape.Volume() != x.Shape.Volume() {
		return nil, fmt.Errorf("tensor: reshape %v -> %v changes volume", x.Shape, shape)
	}
	m := TensorMeta(shape)
	m.Foldable = x.Foldable
	return m, nil
}
