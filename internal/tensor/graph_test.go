package tensor

import (
	"testing"
	"testing/quick"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 16)
	h1 := b.Matmul(ActNone, x, w1)
	h2 := b.Matmul(ActNone, x, w2)
	out := b.Ewadd(h1, h2)
	g, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBuildsValidGraph(t *testing.T) {
	g := smallGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Outputs) != 1 || g.Root != g.Outputs[0] {
		t.Fatal("single-output graph should not get a noop root")
	}
	if !g.Outputs[0].Meta.Shape.Equal(Shape{8, 16}) {
		t.Fatalf("output shape = %v", g.Outputs[0].Meta.Shape)
	}
}

func TestBuilderHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 4)
	a1 := b.Relu(x)
	a2 := b.Relu(x)
	if a1 != a2 {
		t.Fatal("identical nodes not shared")
	}
	if b.Input("x", 4, 4) != x {
		t.Fatal("identical inputs not shared")
	}
}

func TestBuilderStickyError(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 4)
	y := b.Input("y", 5, 5)
	bad := b.Ewadd(x, y) // shape mismatch
	_ = b.Relu(bad)      // chains keep working
	if _, err := b.Finish(bad); err == nil {
		t.Fatal("Finish did not report the builder error")
	}
	if b.Err() == nil {
		t.Fatal("Err() lost the error")
	}
}

func TestMultiOutputNoopRoot(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 4, 8)
	w := b.Weight("w", 8, 8)
	o1 := b.Matmul(ActNone, x, w)
	o2 := b.Relu(o1)
	o3 := b.Tanh(o1)
	g, err := b.Finish(o1, o2, o3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Root.Op != OpNoop {
		t.Fatalf("root op = %v, want noop", g.Root.Op)
	}
	// Two noops chain three outputs.
	if h := g.OpHistogram(); h[OpNoop] != 2 {
		t.Fatalf("noop count = %d, want 2", h[OpNoop])
	}
}

func TestGraphNodesTopological(t *testing.T) {
	g := smallGraph(t)
	pos := make(map[*Node]int)
	for i, n := range g.Nodes() {
		pos[n] = i
	}
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			if pos[in] >= pos[n] {
				t.Fatalf("input %v after user %v", in.Op, n.Op)
			}
		}
	}
}

func TestGraphHashInsensitiveToBuildOrder(t *testing.T) {
	build := func(swap bool) *Graph {
		b := NewBuilder()
		x := b.Input("x", 8, 32)
		w1 := b.Weight("w1", 32, 16)
		w2 := b.Weight("w2", 32, 16)
		var h1, h2 *Node
		if swap {
			h2 = b.Matmul(ActNone, x, w2)
			h1 = b.Matmul(ActNone, x, w1)
		} else {
			h1 = b.Matmul(ActNone, x, w1)
			h2 = b.Matmul(ActNone, x, w2)
		}
		return b.MustFinish(b.Ewadd(h1, h2))
	}
	if build(false).Hash() != build(true).Hash() {
		t.Fatal("hash depends on construction order")
	}
}

func TestGraphHashDistinguishesGraphs(t *testing.T) {
	g1 := smallGraph(t)
	b := NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 16)
	h := b.Matmul(ActNone, x, b.Concat(1, w1, w2))
	s0, s1 := b.Split(1, 16, h)
	g2 := b.MustFinish(b.Ewadd(s0, s1))
	if g1.Hash() == g2.Hash() {
		t.Fatal("distinct graphs share a hash")
	}
}

func TestSplitBuilder(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 24)
	cat := b.Concat(1, w1, w2)
	h := b.Matmul(ActNone, x, cat)
	s0, s1 := b.Split(1, 16, h)
	g := b.MustFinish(s0, s1)
	if !g.Outputs[0].Meta.Shape.Equal(Shape{8, 16}) || !g.Outputs[1].Meta.Shape.Equal(Shape{8, 24}) {
		t.Fatalf("split outputs: %v / %v", g.Outputs[0].Meta.Shape, g.Outputs[1].Meta.Shape)
	}
}

func TestValidateCatchesMetaDrift(t *testing.T) {
	g := smallGraph(t)
	// Corrupt a meta and ensure Validate notices.
	for _, n := range g.Nodes() {
		if n.Op == OpEwadd {
			n.Meta = TensorMeta(Shape{1, 1})
		}
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted meta")
	}
}

func TestOpHelpers(t *testing.T) {
	if OpMatmul.String() != "matmul" {
		t.Fatalf("op name = %q", OpMatmul)
	}
	if OpByName["conv"] != OpConv {
		t.Fatal("OpByName broken")
	}
	if op, err := ConcatOp(3); err != nil || op != OpConcat3 {
		t.Fatalf("ConcatOp(3) = %v, %v", op, err)
	}
	if _, err := ConcatOp(6); err == nil {
		t.Fatal("ConcatOp(6) accepted")
	}
	for op := Op(0); op < NumOps; op++ {
		if op.Arity() < 0 {
			t.Fatalf("op %v has no arity", op)
		}
	}
}

func TestPermRoundTripProperty(t *testing.T) {
	f := func(seed []uint8) bool {
		n := len(seed)%5 + 1
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i, s := range seed {
			j, k := i%n, int(s)%n
			perm[j], perm[k] = perm[k], perm[j]
		}
		got, err := ParsePerm(PermString(perm))
		if err != nil || len(got) != n {
			return false
		}
		for i := range perm {
			if got[i] != perm[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInferTransposeVolumePreserved(t *testing.T) {
	// Property: transpose preserves volume for random shapes/perms.
	f := func(dims []uint8, rot uint8) bool {
		n := len(dims)%4 + 1
		shape := make(Shape, n)
		for i := range shape {
			d := 1
			if len(dims) > 0 {
				d = int(dims[i%len(dims)])%7 + 1
			}
			shape[i] = d
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i + int(rot)) % n
		}
		m, err := Infer(OpTranspose, 0, "", []*Meta{TensorMeta(shape), StrMeta(PermString(perm))})
		return err == nil && m.Shape.Volume() == shape.Volume()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
