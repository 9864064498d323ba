package tensor

import (
	"math"
	"testing"
)

func evalGraph(t *testing.T, g *Graph) []*Tensor {
	t.Helper()
	outs, err := NewEvaluator().EvalOutputs(g)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// maxAbsDiff returns the largest element-wise absolute difference of
// t and o, +Inf when their shapes differ.
func maxAbsDiff(t, o *Tensor) float64 {
	if !t.Shape.Equal(o.Shape) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range t.Data {
		if d := math.Abs(t.Data[i] - o.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestEvalChecksMeta: a node whose meta is not the shape its value
// computes to is an error, so every value test checks Infer as well.
func TestEvalChecksMeta(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 2, 3)
	bad := &Node{Op: OpTranspose, Inputs: []*Node{x, b.StrParam("1 0")}, Meta: x.Meta}
	if _, err := NewEvaluator().EvalOutputs(&Graph{Root: bad, Outputs: []*Node{bad}}); err == nil {
		t.Fatal("transpose carrying its input's meta evaluated without error")
	}
	good := b.Transpose(x, 1, 0)
	if _, err := NewEvaluator().EvalOutputs(&Graph{Root: good, Outputs: []*Node{good}}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalDeterministicLeaves(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 4)
	g1 := b.MustFinish(b.Relu(x))
	b2 := NewBuilder()
	x2 := b2.Input("x", 4, 4)
	g2 := b2.MustFinish(b2.Relu(x2))
	o1, o2 := evalGraph(t, g1)[0], evalGraph(t, g2)[0]
	if maxAbsDiff(o1, o2) != 0 {
		t.Fatal("same identifier produced different data")
	}
	// A different name produces different data.
	b3 := NewBuilder()
	x3 := b3.Input("y", 4, 4)
	g3 := b3.MustFinish(b3.Relu(x3))
	if maxAbsDiff(o1, evalGraph(t, g3)[0]) == 0 {
		t.Fatal("different identifiers produced identical data")
	}
}

func TestEvalMatmulAgainstManual(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 2, 3)
	w := b.Weight("w", 3, 2)
	g := b.MustFinish(b.Matmul(ActNone, x, w))
	out := evalGraph(t, g)[0]

	xs, ws := NewTensor(Shape{2, 3}), NewTensor(Shape{3, 2})
	xs.FillPseudo(hashIdent("x@2 3"))
	ws.FillPseudo(hashIdent("w@3 2"))
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sum := 0.0
			for k := 0; k < 3; k++ {
				sum += xs.At(i, k) * ws.At(k, j)
			}
			if math.Abs(out.At(i, j)-sum) > 1e-12 {
				t.Fatalf("matmul[%d][%d] = %v, want %v", i, j, out.At(i, j), sum)
			}
		}
	}
}

func TestEvalActivations(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 2, 2)
	g := b.MustFinish(b.Relu(x), b.Tanh(x), b.Sigmoid(x))
	outs := evalGraph(t, g)
	xs := NewTensor(Shape{2, 2})
	xs.FillPseudo(hashIdent("x@2 2"))
	for i, v := range xs.Data {
		if want := math.Max(0, v); outs[0].Data[i] != want {
			t.Fatalf("relu(%v) = %v", v, outs[0].Data[i])
		}
		if want := math.Tanh(v); outs[1].Data[i] != want {
			t.Fatalf("tanh(%v) = %v", v, outs[1].Data[i])
		}
		if want := 1 / (1 + math.Exp(-v)); outs[2].Data[i] != want {
			t.Fatalf("sigmoid(%v) = %v", v, outs[2].Data[i])
		}
	}
}

func TestEvalConcatSplitRoundTrip(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 3, 4)
	y := b.Input("y", 3, 6)
	cat := b.Concat(1, x, y)
	s0, s1 := b.Split(1, 4, cat)
	g := b.MustFinish(s0, s1)
	outs := evalGraph(t, g)
	xs := NewTensor(Shape{3, 4})
	xs.FillPseudo(hashIdent("x@3 4"))
	ys := NewTensor(Shape{3, 6})
	ys.FillPseudo(hashIdent("y@3 6"))
	if maxAbsDiff(outs[0], xs) != 0 {
		t.Fatal("split0(concat(x,y)) != x")
	}
	if maxAbsDiff(outs[1], ys) != 0 {
		t.Fatal("split1(concat(x,y)) != y")
	}
}

func TestEvalTransposeInvolution(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 3, 5)
	g := b.MustFinish(b.Transpose(b.Transpose(x, 1, 0), 1, 0))
	out := evalGraph(t, g)[0]
	xs := NewTensor(Shape{3, 5})
	xs.FillPseudo(hashIdent("x@3 5"))
	if maxAbsDiff(out, xs) != 0 {
		t.Fatal("double transpose is not the identity")
	}
}

// TestEvalMatmulConcatIdentity verifies the algebra behind Figure 2:
// matmul(x, concat(w1,w2)) computes [matmul(x,w1) | matmul(x,w2)].
func TestEvalMatmulConcatIdentity(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 8)
	w1 := b.Weight("w1", 8, 3)
	w2 := b.Weight("w2", 8, 5)
	merged := b.Matmul(ActNone, x, b.Concat(1, w1, w2))
	s0, s1 := b.Split(1, 3, merged)
	g1 := b.MustFinish(s0, s1)
	b2 := NewBuilder()
	x2 := b2.Input("x", 4, 8)
	w1b := b2.Weight("w1", 8, 3)
	w2b := b2.Weight("w2", 8, 5)
	g2 := b2.MustFinish(b2.Matmul(ActNone, x2, w1b), b2.Matmul(ActNone, x2, w2b))
	o1, o2 := evalGraph(t, g1), evalGraph(t, g2)
	for i := range o1 {
		if d := maxAbsDiff(o1[i], o2[i]); d > 1e-9 {
			t.Fatalf("output %d differs by %v", i, d)
		}
	}
}

// TestEvalEnlargePreservesConv verifies the enlarge rule's semantics:
// under SAME padding and stride 1, conv with a zero-padded kernel is
// unchanged.
func TestEvalEnlargePreservesConv(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1, 4, 8, 8)
	k1 := b.Weight("k1", 6, 4, 1, 1)
	ref := b.Weight("k3", 6, 4, 3, 3)
	direct := b.Conv(1, 1, PadSame, ActNone, x, k1)
	enlarged := b.Conv(1, 1, PadSame, ActNone, x, b.Enlarge(k1, ref))
	g := b.MustFinish(direct, enlarged)
	outs := evalGraph(t, g)
	if d := maxAbsDiff(outs[0], outs[1]); d > 1e-9 {
		t.Fatalf("enlarge changed the convolution by %v", d)
	}
}

// TestEvalMergeGconvPreservesConv pins merge_gconv's semantics: a
// grouped conv over the merged (zero-padded) weight computes the same
// values, in the cout == C geometry inferMerge requires.
func TestEvalMergeGconvPreservesConv(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1, 8, 5, 5)
	w := b.Weight("w", 8, 2, 3, 3) // 4 groups of 2
	direct := b.Conv(1, 1, PadSame, ActNone, x, w)
	merged := b.Conv(1, 1, PadSame, ActNone, x, b.Merge(w, 2))
	g := b.MustFinish(direct, merged)
	outs := evalGraph(t, g)
	if d := maxAbsDiff(outs[0], outs[1]); d > 1e-9 {
		t.Fatalf("merge_gconv changed the convolution by %v", d)
	}
}

// TestEvalConvConcatChannels verifies the Figure 9 algebra: concat of
// conv outputs equals conv over out-channel-concatenated weights.
func TestEvalConvConcatChannels(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1, 3, 6, 6)
	w1 := b.Weight("w1", 4, 3, 3, 3)
	w2 := b.Weight("w2", 5, 3, 3, 3)
	lhs := b.Concat(1,
		b.Conv(1, 1, PadSame, ActNone, x, w1),
		b.Conv(1, 1, PadSame, ActNone, x, w2))
	rhs := b.Conv(1, 1, PadSame, ActNone, x, b.Concat(0, w1, w2))
	g := b.MustFinish(lhs, rhs)
	outs := evalGraph(t, g)
	if d := maxAbsDiff(outs[0], outs[1]); d > 1e-9 {
		t.Fatalf("figure 9 identity violated by %v", d)
	}
}

// TestEvalFigure10Identity verifies ewadd(conv(x,w1), conv(y,w2)) ==
// conv(concat_c(x,y), concat_c(w1,w2)).
func TestEvalFigure10Identity(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1, 3, 6, 6)
	y := b.Input("y", 1, 2, 6, 6)
	w1 := b.Weight("w1", 4, 3, 3, 3)
	w2 := b.Weight("w2", 4, 2, 3, 3)
	lhs := b.Ewadd(
		b.Conv(1, 1, PadSame, ActNone, x, w1),
		b.Conv(1, 1, PadSame, ActNone, y, w2))
	rhs := b.Conv(1, 1, PadSame, ActNone, b.Concat(1, x, y), b.Concat(1, w1, w2))
	g := b.MustFinish(lhs, rhs)
	outs := evalGraph(t, g)
	if d := maxAbsDiff(outs[0], outs[1]); d > 1e-9 {
		t.Fatalf("figure 10 identity violated by %v", d)
	}
}

func TestEvalPooling(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1, 2, 4, 4)
	g := b.MustFinish(
		b.PoolMax(x, 2, 2, 2, 2, PadValid, ActNone),
		b.PoolAvg(x, 2, 2, 2, 2, PadValid, ActNone))
	outs := evalGraph(t, g)
	xs := NewTensor(Shape{1, 2, 4, 4})
	xs.FillPseudo(hashIdent("x@1 2 4 4"))
	for c := 0; c < 2; c++ {
		for y := 0; y < 2; y++ {
			for xx := 0; xx < 2; xx++ {
				maxV := math.Inf(-1)
				sum := 0.0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						v := xs.At(0, c, 2*y+dy, 2*xx+dx)
						sum += v
						if v > maxV {
							maxV = v
						}
					}
				}
				if outs[0].At(0, c, y, xx) != maxV {
					t.Fatalf("poolmax mismatch at %d,%d,%d", c, y, xx)
				}
				if math.Abs(outs[1].At(0, c, y, xx)-sum/4) > 1e-12 {
					t.Fatalf("poolavg mismatch at %d,%d,%d", c, y, xx)
				}
			}
		}
	}
}

func TestEvalReshape(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 2, 6)
	g := b.MustFinish(b.Reshape(x, 3, 4))
	out := evalGraph(t, g)[0]
	xs := NewTensor(Shape{2, 6})
	xs.FillPseudo(hashIdent("x@2 6"))
	for i := range xs.Data {
		if out.Data[i] != xs.Data[i] {
			t.Fatal("reshape moved data")
		}
	}
}
