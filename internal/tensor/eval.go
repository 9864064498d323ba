package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense float64 tensor used by the reference interpreter.
// The interpreter exists to validate rewrite soundness end to end: an
// optimized graph must compute the same values as the original (the
// guarantee §2.3 derives from sound rules), so tests evaluate both on
// deterministic pseudo-random inputs and compare.
type Tensor struct {
	Shape Shape
	Data  []float64
}

// NewTensor allocates a zero tensor.
func NewTensor(shape Shape) *Tensor {
	return &Tensor{Shape: shape.Clone(), Data: make([]float64, shape.Volume())}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set writes the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, d := range idx {
		if d < 0 || d >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + d
	}
	return off
}

// FillPseudo fills the tensor with deterministic pseudo-random values
// in [-1, 1) derived from the seed (splitmix64).
func (t *Tensor) FillPseudo(seed uint64) {
	x := seed
	for i := range t.Data {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		t.Data[i] = float64(z%2000000)/1000000 - 1
	}
}

// MaxRelDiff returns the largest element-wise relative difference,
// |a-b| / (1 + |a| + |b|). Rewrites legitimately reassociate long
// reductions, so equivalence checks must tolerate rounding drift
// proportional to magnitude.
func (t *Tensor) MaxRelDiff(o *Tensor) float64 {
	if !t.Shape.Equal(o.Shape) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range t.Data {
		a, b := t.Data[i], o.Data[i]
		if d := math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b)); d > worst {
			worst = d
		}
	}
	return worst
}

// tuple carries split results through evaluation.
type tuple struct{ a, b *Tensor }

// Evaluator executes tensor graphs numerically. Input and weight
// tensors are generated deterministically from their identifiers, so
// two graphs over the same leaves are directly comparable.
type Evaluator struct {
	memo map[*Node]any
}

// NewEvaluator returns an empty evaluator.
func NewEvaluator() *Evaluator { return &Evaluator{memo: make(map[*Node]any)} }

// EvalOutputs evaluates all outputs of g.
func (e *Evaluator) EvalOutputs(g *Graph) ([]*Tensor, error) {
	outs := make([]*Tensor, len(g.Outputs))
	for i, o := range g.Outputs {
		v, err := e.eval(o)
		if err != nil {
			return nil, err
		}
		t, ok := v.(*Tensor)
		if !ok {
			return nil, fmt.Errorf("tensor: output %d is not a tensor", i)
		}
		outs[i] = t
	}
	return outs, nil
}

func hashIdent(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (e *Evaluator) eval(n *Node) (any, error) {
	if v, ok := e.memo[n]; ok {
		return v, nil
	}
	v, err := e.compute(n)
	if err == nil {
		err = checkMeta(n.Meta, v)
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", n.Op, err)
	}
	e.memo[n] = v
	return v, nil
}

// checkMeta holds a computed value to its node's meta. Every value
// test runs through it, so they all check Infer against execution too.
func checkMeta(m *Meta, v any) error {
	switch v := v.(type) {
	case *Tensor:
		if m == nil || m.Kind != KindTensor || !v.Shape.Equal(m.Shape) {
			return fmt.Errorf("tensor: computed shape [%v], node meta %v", v.Shape, m)
		}
	case tuple:
		if m == nil || m.Kind != KindTuple || !v.a.Shape.Equal(m.Shape) || !v.b.Shape.Equal(m.Shape2) {
			return fmt.Errorf("tensor: computed tuple ([%v],[%v]), node meta %v", v.a.Shape, v.b.Shape, m)
		}
	}
	return nil
}

func (e *Evaluator) evalT(n *Node) (*Tensor, error) {
	v, err := e.eval(n)
	if err != nil {
		return nil, err
	}
	t, ok := v.(*Tensor)
	if !ok {
		return nil, fmt.Errorf("tensor: expected tensor, got %T", v)
	}
	return t, nil
}

func activate(act int64, v float64) float64 {
	switch act {
	case ActRelu:
		if v < 0 {
			return 0
		}
		return v
	case ActSigmoid:
		return 1 / (1 + math.Exp(-v))
	case ActTanh:
		return math.Tanh(v)
	default:
		return v
	}
}

func (e *Evaluator) compute(n *Node) (any, error) {
	switch n.Op {
	case OpInt, OpStr:
		return n, nil // parameters are consumed through n.Inputs directly
	case OpInput, OpWeight:
		_, shape, err := ParseIdent(n.Str)
		if err != nil {
			return nil, err
		}
		t := NewTensor(shape)
		t.FillPseudo(hashIdent(n.Str))
		return t, nil
	case OpEwadd, OpEwmul:
		a, err := e.evalT(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		b, err := e.evalT(n.Inputs[1])
		if err != nil {
			return nil, err
		}
		out := NewTensor(a.Shape)
		for i := range out.Data {
			if n.Op == OpEwadd {
				out.Data[i] = a.Data[i] + b.Data[i]
			} else {
				out.Data[i] = a.Data[i] * b.Data[i]
			}
		}
		return out, nil
	case OpRelu, OpTanh, OpSigmoid:
		a, err := e.evalT(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		mode := map[Op]int64{OpRelu: ActRelu, OpTanh: ActTanh, OpSigmoid: ActSigmoid}[n.Op]
		out := NewTensor(a.Shape)
		for i, v := range a.Data {
			out.Data[i] = activate(mode, v)
		}
		return out, nil
	case OpMatmul:
		act := n.Inputs[0].Int
		a, err := e.evalT(n.Inputs[1])
		if err != nil {
			return nil, err
		}
		b, err := e.evalT(n.Inputs[2])
		if err != nil {
			return nil, err
		}
		return matmulEval(act, a, b)
	case OpConv:
		return e.convEval(n)
	case OpPoolMax, OpPoolAvg:
		return e.poolEval(n)
	case OpTranspose:
		a, err := e.evalT(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		perm, err := ParsePerm(n.Inputs[1].Str)
		if err != nil {
			return nil, err
		}
		return transposeEval(a, perm)
	case OpEnlarge:
		k, err := e.evalT(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		ref, err := e.evalT(n.Inputs[1])
		if err != nil {
			return nil, err
		}
		return enlargeEval(k, ref.Shape)
	case OpConcat2, OpConcat3, OpConcat4, OpConcat5:
		axis := int(n.Inputs[0].Int)
		parts := make([]*Tensor, 0, len(n.Inputs)-1)
		for _, in := range n.Inputs[1:] {
			t, err := e.evalT(in)
			if err != nil {
				return nil, err
			}
			parts = append(parts, t)
		}
		return concatEval(axis, parts)
	case OpSplit:
		axis := int(n.Inputs[0].Int)
		x, err := e.evalT(n.Inputs[1])
		if err != nil {
			return nil, err
		}
		a, b, err := splitEval(axis, int(n.Int), x)
		if err != nil {
			return nil, err
		}
		return tuple{a: a, b: b}, nil
	case OpSplit0, OpSplit1:
		v, err := e.eval(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		tt, ok := v.(tuple)
		if !ok {
			return nil, fmt.Errorf("split0/1 over non-tuple %T", v)
		}
		if n.Op == OpSplit0 {
			return tt.a, nil
		}
		return tt.b, nil
	case OpMerge:
		w, err := e.evalT(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return mergeEval(w, int(n.Inputs[1].Int))
	case OpReshape:
		a, err := e.evalT(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		shape, err := ParseShape(n.Inputs[1].Str)
		if err != nil {
			return nil, err
		}
		out := NewTensor(shape)
		copy(out.Data, a.Data)
		return out, nil
	case OpNoop:
		// Evaluate both sides; the noop itself carries no value.
		if _, err := e.evalT(n.Inputs[0]); err != nil {
			return nil, err
		}
		if _, err := e.evalT(n.Inputs[1]); err != nil {
			return nil, err
		}
		return NewTensor(nil), nil
	default:
		return nil, fmt.Errorf("no interpreter for %v", n.Op)
	}
}

func matmulEval(act int64, a, b *Tensor) (*Tensor, error) {
	n := len(a.Shape)
	if n < 2 || len(b.Shape) != n || a.Shape[n-1] != b.Shape[n-2] {
		return nil, fmt.Errorf("matmul shapes %v x %v", a.Shape, b.Shape)
	}
	batch := 1
	for i := 0; i < n-2; i++ {
		batch *= a.Shape[i]
	}
	m, k, p := a.Shape[n-2], a.Shape[n-1], b.Shape[n-1]
	outShape := a.Shape.Clone()
	outShape[n-1] = p
	out := NewTensor(outShape)
	for bi := 0; bi < batch; bi++ {
		ao, bo, oo := bi*m*k, bi*k*p, bi*m*p
		for i := 0; i < m; i++ {
			for j := 0; j < p; j++ {
				sum := 0.0
				for l := 0; l < k; l++ {
					sum += a.Data[ao+i*k+l] * b.Data[bo+l*p+j]
				}
				out.Data[oo+i*p+j] = activate(act, sum)
			}
		}
	}
	return out, nil
}

// convEval implements grouped convolution in NCHW/OIHW layout with the
// framework-standard SAME/VALID padding.
func (e *Evaluator) convEval(n *Node) (*Tensor, error) {
	sh, sw := int(n.Inputs[0].Int), int(n.Inputs[1].Int)
	pad, act := n.Inputs[2].Int, n.Inputs[3].Int
	x, err := e.evalT(n.Inputs[4])
	if err != nil {
		return nil, err
	}
	w, err := e.evalT(n.Inputs[5])
	if err != nil {
		return nil, err
	}
	nb, c, h, wid := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, cinPG, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	groups := c / cinPG
	coutPG := cout / groups
	oh, ow, err := spatialOut(h, wid, kh, kw, sh, sw, pad)
	if err != nil {
		return nil, err
	}
	padTop, padLeft := 0, 0
	if pad == PadSame {
		padTop = ((oh-1)*sh + kh - h) / 2
		padLeft = ((ow-1)*sw + kw - wid) / 2
		if padTop < 0 {
			padTop = 0
		}
		if padLeft < 0 {
			padLeft = 0
		}
	}
	out := NewTensor(Shape{nb, cout, oh, ow})
	for b := 0; b < nb; b++ {
		for o := 0; o < cout; o++ {
			g := o / coutPG
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					sum := 0.0
					for ci := 0; ci < cinPG; ci++ {
						ic := g*cinPG + ci
						for dy := 0; dy < kh; dy++ {
							iy := y*sh + dy - padTop
							if iy < 0 || iy >= h {
								continue
							}
							for dx := 0; dx < kw; dx++ {
								ix := xx*sw + dx - padLeft
								if ix < 0 || ix >= wid {
									continue
								}
								sum += x.At(b, ic, iy, ix) * w.At(o, ci, dy, dx)
							}
						}
					}
					out.Set(activate(act, sum), b, o, y, xx)
				}
			}
		}
	}
	return out, nil
}

func (e *Evaluator) poolEval(n *Node) (*Tensor, error) {
	x, err := e.evalT(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	kh, kw := int(n.Inputs[1].Int), int(n.Inputs[2].Int)
	sh, sw := int(n.Inputs[3].Int), int(n.Inputs[4].Int)
	pad, act := n.Inputs[5].Int, n.Inputs[6].Int
	nb, c, h, wid := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow, err := spatialOut(h, wid, kh, kw, sh, sw, pad)
	if err != nil {
		return nil, err
	}
	padTop, padLeft := 0, 0
	if pad == PadSame {
		padTop = ((oh-1)*sh + kh - h) / 2
		padLeft = ((ow-1)*sw + kw - wid) / 2
		if padTop < 0 {
			padTop = 0
		}
		if padLeft < 0 {
			padLeft = 0
		}
	}
	out := NewTensor(Shape{nb, c, oh, ow})
	for b := 0; b < nb; b++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					best := math.Inf(-1)
					sum, count := 0.0, 0
					for dy := 0; dy < kh; dy++ {
						iy := y*sh + dy - padTop
						if iy < 0 || iy >= h {
							continue
						}
						for dx := 0; dx < kw; dx++ {
							ix := xx*sw + dx - padLeft
							if ix < 0 || ix >= wid {
								continue
							}
							v := x.At(b, ci, iy, ix)
							sum += v
							count++
							if v > best {
								best = v
							}
						}
					}
					v := best
					if n.Op == OpPoolAvg {
						if count == 0 {
							v = 0
						} else {
							v = sum / float64(count)
						}
					}
					out.Set(activate(act, v), b, ci, y, xx)
				}
			}
		}
	}
	return out, nil
}

func transposeEval(a *Tensor, perm []int) (*Tensor, error) {
	if len(perm) != len(a.Shape) {
		return nil, fmt.Errorf("transpose rank mismatch")
	}
	outShape := make(Shape, len(perm))
	for i, p := range perm {
		outShape[i] = a.Shape[p]
	}
	out := NewTensor(outShape)
	idx := make([]int, len(perm))
	src := make([]int, len(perm))
	var rec func(d int)
	rec = func(d int) {
		if d == len(perm) {
			for i, p := range perm {
				src[p] = idx[i]
			}
			out.Set(a.At(src...), idx...)
			return
		}
		for idx[d] = 0; idx[d] < outShape[d]; idx[d]++ {
			rec(d + 1)
		}
		idx[d] = 0
	}
	rec(0)
	return out, nil
}

// enlargeEval zero-pads a kernel spatially, centered, so that under
// SAME padding and stride 1 the convolution is unchanged.
func enlargeEval(k *Tensor, ref Shape) (*Tensor, error) {
	kh, kw := k.Shape[2], k.Shape[3]
	rh, rw := ref[2], ref[3]
	offH, offW := (rh-kh)/2, (rw-kw)/2
	out := NewTensor(Shape{k.Shape[0], k.Shape[1], rh, rw})
	for o := 0; o < k.Shape[0]; o++ {
		for i := 0; i < k.Shape[1]; i++ {
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					out.Set(k.At(o, i, y, x), o, i, y+offH, x+offW)
				}
			}
		}
	}
	return out, nil
}

func concatEval(axis int, parts []*Tensor) (*Tensor, error) {
	first := parts[0]
	outShape := first.Shape.Clone()
	for _, p := range parts[1:] {
		outShape[axis] += p.Shape[axis]
	}
	out := NewTensor(outShape)
	// Copy slabs: outer = product of dims before axis, inner = after.
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= outShape[i]
	}
	inner := 1
	for i := axis + 1; i < len(outShape); i++ {
		inner *= outShape[i]
	}
	dstAxis := 0
	for _, p := range parts {
		pa := p.Shape[axis]
		for o := 0; o < outer; o++ {
			srcOff := o * pa * inner
			dstOff := (o*outShape[axis] + dstAxis) * inner
			copy(out.Data[dstOff:dstOff+pa*inner], p.Data[srcOff:srcOff+pa*inner])
		}
		dstAxis += pa
	}
	return out, nil
}

func splitEval(axis, at int, x *Tensor) (*Tensor, *Tensor, error) {
	if axis < 0 || axis >= len(x.Shape) || at <= 0 || at >= x.Shape[axis] {
		return nil, nil, fmt.Errorf("split position %d on axis %d out of range for %v", at, axis, x.Shape)
	}
	s1 := x.Shape.Clone()
	s1[axis] = at
	s2 := x.Shape.Clone()
	s2[axis] = x.Shape[axis] - at
	a, b := NewTensor(s1), NewTensor(s2)
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= x.Shape[i]
	}
	inner := 1
	for i := axis + 1; i < len(x.Shape); i++ {
		inner *= x.Shape[i]
	}
	for o := 0; o < outer; o++ {
		srcOff := o * x.Shape[axis] * inner
		copy(a.Data[o*at*inner:(o+1)*at*inner], x.Data[srcOff:srcOff+at*inner])
		rest := x.Shape[axis] - at
		copy(b.Data[o*rest*inner:(o+1)*rest*inner], x.Data[srcOff+at*inner:srcOff+x.Shape[axis]*inner])
	}
	return a, b, nil
}

// mergeEval implements TASO's merge_gconv: every `count` groups of a
// grouped convolution's weight merge into one, zero-padding each
// output channel's band of the widened input block so the convolution
// is unchanged. The group geometry follows the cout == C convention
// pinned by inferMerge: original groups = cout/cinPG, so output
// channel o sat in group o/cinPG and its weights land in band
// (o/cinPG) mod count of the merged block.
func mergeEval(w *Tensor, count int) (*Tensor, error) {
	cout, cinPG, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if cout%cinPG != 0 || (cout/cinPG)%count != 0 {
		return nil, fmt.Errorf("merge: invalid geometry (%d, %d, count %d)", cout, cinPG, count)
	}
	out := NewTensor(Shape{cout, cinPG * count, kh, kw})
	for o := 0; o < cout; o++ {
		band := (o / cinPG) % count
		for ci := 0; ci < cinPG; ci++ {
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					out.Set(w.At(o, ci, y, x), o, band*cinPG+ci, y, x)
				}
			}
		}
	}
	return out, nil
}
