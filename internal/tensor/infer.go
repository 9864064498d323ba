package tensor

import "fmt"

// Infer computes the Meta of an operator applied to argument metas.
// It is the single shape-inference engine shared by the graph builder,
// the e-class analysis, and the rewrite engine's shape checking (§4:
// "Before applying a rewrite at a found match, we perform a shape
// checking to verify if the tensor shapes in the target pattern are
// compatible."). ival/sval are the payloads of literal ops, ival is
// split's boundary, and both are ignored for the rest.
//
// Argument kinds and integer ranges are checked here once, against the
// operator's signature (the signatures table is their one owner); each
// operator's case below computes only its output shape.
func Infer(op Op, ival int64, sval string, args []*Meta) (*Meta, error) {
	if op >= NumOps {
		return nil, fmt.Errorf("tensor: unknown operator %v", op)
	}
	sig := signatures[op]
	if len(args) != len(sig) {
		return nil, fmt.Errorf("tensor: %v expects %d arguments, got %d", op, len(sig), len(args))
	}
	fold := true
	for i, a := range args {
		if a == nil {
			return nil, fmt.Errorf("tensor: %v argument %d is nil", op, i)
		}
		if want := ArgKind(sig[i]); a.Kind != want {
			return nil, fmt.Errorf("tensor: %v argument %d must be %v, got %v", op, i, want, a)
		}
		switch sig[i] {
		case 'T', 'P':
			fold = fold && a.Foldable
		case 'R', 'S':
		default:
			if lo, hi := intRange(sig[i]); a.IVal < lo || a.IVal > hi {
				return nil, fmt.Errorf("tensor: %v argument %d = %d out of range [%d,%d]", op, i, a.IVal, lo, hi)
			}
		}
	}
	var s1, s2 Shape
	var err error
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
		a, b := args[0].Shape, args[1].Shape
		if !a.Equal(b) {
			return nil, fmt.Errorf("tensor: %v shape mismatch %v vs %v", op, a, b)
		}
		s1 = a.Clone()
	case OpMatmul:
		s1, err = matmulShape(args[1].Shape, args[2].Shape)
	case OpConv:
		s1, err = convShape(args)
	case OpRelu, OpTanh, OpSigmoid:
		s1 = args[0].Shape.Clone()
	case OpPoolMax, OpPoolAvg:
		s1, err = poolShape(op, args)
	case OpTranspose:
		s1, err = transposeShape(args[0].Shape, args[1].SVal)
	case OpEnlarge:
		s1, err = enlargeShape(args[0].Shape, args[1].Shape)
	case OpConcat2, OpConcat3, OpConcat4, OpConcat5:
		s1, err = concatShape(args)
	case OpSplit:
		s1, s2, err = splitShapes(ival, args[0].IVal, args[1].Shape)
	case OpSplit0:
		s1 = args[0].Shape.Clone()
	case OpSplit1:
		s1 = args[0].Shape2.Clone()
	case OpMerge:
		s1, err = mergeShape(args[0].Shape, args[1].IVal)
	case OpReshape:
		s1, err = reshapeShape(args[0].Shape, args[1].SVal)
	case OpNoop: // joins two outputs: a tensor with no shape
	}
	if err != nil {
		return nil, err
	}
	return computed(s1, s2, fold)
}

// computed builds the meta of a computed value: a tensor of shape s1,
// or the tuple (s1, s2) when s2 is set, foldable when every argument
// whose value it reads is. It refuses a tensor of more than maxVolume
// elements.
func computed(s1, s2 Shape, fold bool) (*Meta, error) {
	if !s1.bounded() || !s2.bounded() {
		return nil, fmt.Errorf("tensor: result shape [%v] [%v] has a dimension below 1 or over %d elements", s1, s2, maxVolume)
	}
	m := &Meta{Kind: KindTensor, Shape: s1, Foldable: fold}
	if s2 != nil {
		m.Kind, m.Shape2 = KindTuple, s2
	}
	return m, nil
}

func matmulShape(a, b Shape) (Shape, error) {
	if len(a) < 2 || len(b) < 2 || len(a) != len(b) {
		return nil, fmt.Errorf("tensor: matmul rank mismatch %v x %v", a, b)
	}
	n := len(a)
	for i := 0; i < n-2; i++ {
		if a[i] != b[i] {
			return nil, fmt.Errorf("tensor: matmul batch dims differ: %v x %v", a, b)
		}
	}
	if a[n-1] != b[n-2] {
		return nil, fmt.Errorf("tensor: matmul inner dims differ: %v x %v", a, b)
	}
	out := a.Clone()
	out[n-1] = b[n-1]
	return out, nil
}

func convShape(args []*Meta) (Shape, error) {
	sh, sw, pad := args[0].IVal, args[1].IVal, args[2].IVal
	x, w := args[4].Shape, args[5].Shape
	if len(x) != 4 || len(w) != 4 {
		return nil, fmt.Errorf("tensor: conv wants NCHW input and OIHW weight, got %v, %v", x, w)
	}
	n, c, h, wid := x[0], x[1], x[2], x[3]
	cout, cinPG, kh, kw := w[0], w[1], w[2], w[3]
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
	return Shape{n, cout, oh, ow}, nil
}

func spatialOut(h, w, kh, kw, sh, sw int, pad int64) (int, int, error) {
	if kh <= 0 || kw <= 0 {
		return 0, 0, fmt.Errorf("tensor: kernel %dx%d invalid", kh, kw)
	}
	if pad == PadSame {
		return (h-1)/sh + 1, (w-1)/sw + 1, nil
	}
	if h < kh || w < kw {
		return 0, 0, fmt.Errorf("tensor: valid padding with kernel %dx%d larger than input %dx%d", kh, kw, h, w)
	}
	return (h-kh)/sh + 1, (w-kw)/sw + 1, nil
}

func poolShape(op Op, args []*Meta) (Shape, error) {
	x := args[0].Shape
	if len(x) != 4 {
		return nil, fmt.Errorf("tensor: %v wants NCHW input, got %v", op, x)
	}
	kh, kw, sh, sw := args[1].IVal, args[2].IVal, args[3].IVal, args[4].IVal
	oh, ow, err := spatialOut(x[2], x[3], int(kh), int(kw), int(sh), int(sw), args[5].IVal)
	if err != nil {
		return nil, err
	}
	return Shape{x[0], x[1], oh, ow}, nil
}

func transposeShape(x Shape, permText string) (Shape, error) {
	perm, err := ParsePerm(permText)
	if err != nil {
		return nil, err
	}
	if len(perm) != len(x) {
		return nil, fmt.Errorf("tensor: transpose permutation rank %d != tensor rank %d", len(perm), len(x))
	}
	out := make(Shape, len(perm))
	for i, a := range perm {
		out[i] = x[a]
	}
	return out, nil
}

func enlargeShape(k, ref Shape) (Shape, error) {
	if len(k) != 4 || len(ref) != 4 {
		return nil, fmt.Errorf("tensor: enlarge wants OIHW kernels, got %v, %v", k, ref)
	}
	if k[2] > ref[2] || k[3] > ref[3] {
		return nil, fmt.Errorf("tensor: enlarge kernel %v larger than reference %v", k, ref)
	}
	return Shape{k[0], k[1], ref[2], ref[3]}, nil
}

func concatShape(args []*Meta) (Shape, error) {
	axis := args[0].IVal
	first := args[1].Shape
	rank := len(first)
	if axis >= int64(rank) {
		return nil, fmt.Errorf("tensor: concat axis %d out of range for rank %d", axis, rank)
	}
	out := first.Clone()
	for _, a := range args[2:] {
		t := a.Shape
		if len(t) != rank {
			return nil, fmt.Errorf("tensor: concat rank mismatch %v vs %v", first, t)
		}
		for d := 0; d < rank; d++ {
			if d != int(axis) && t[d] != out[d] {
				return nil, fmt.Errorf("tensor: concat dim %d mismatch: %v vs %v", d, out, t)
			}
		}
		out[axis] += t[axis]
	}
	return out, nil
}

func splitShapes(at, axis int64, x Shape) (Shape, Shape, error) {
	if axis >= int64(len(x)) {
		return nil, nil, fmt.Errorf("tensor: split axis %d out of range for rank %d", axis, len(x))
	}
	if at <= 0 || at >= int64(x[axis]) {
		return nil, nil, fmt.Errorf("tensor: split position %d out of range for dim %d", at, x[axis])
	}
	s1 := x.Clone()
	s1[axis] = int(at)
	s2 := x.Clone()
	s2[axis] = x[axis] - int(at)
	return s1, s2, nil
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

func mergeShape(w Shape, count int64) (Shape, error) {
	if len(w) != 4 {
		return nil, fmt.Errorf("tensor: merge wants an OIHW weight, got %v", w)
	}
	// merge's zero-pad band layout is defined by the original group
	// structure, recoverable from the weight alone only when the conv
	// has as many output channels as input channels (cout == C, so
	// groups = cout/cinPG) — the ResNeXt/depthwise case TASO's
	// merge_gconv targets. The rewrite's condition enforces cout == C.
	cout, cinPG := w[0], w[1]
	if cout%cinPG != 0 {
		return nil, fmt.Errorf("tensor: merge needs cinPG %d dividing out-channels %d", cinPG, cout)
	}
	groups := cout / cinPG
	if groups%int(count) != 0 {
		return nil, fmt.Errorf("tensor: merge count %d does not divide groups %d", count, groups)
	}
	return Shape{w[0], w[1] * int(count), w[2], w[3]}, nil
}

func reshapeShape(x Shape, target string) (Shape, error) {
	shape, err := ParseShape(target)
	if err != nil {
		return nil, err
	}
	if shape.Volume() != x.Volume() {
		return nil, fmt.Errorf("tensor: reshape %v -> %v changes volume", x, shape)
	}
	return shape, nil
}
