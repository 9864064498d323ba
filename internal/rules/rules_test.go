package rules

import (
	"context"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/egraph"
	"tensat/internal/extract"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

func optimize(t *testing.T, g *tensor.Graph, kmulti, iters int) *extract.Result {
	t.Helper()
	r := rewrite.NewRunner(Default())
	r.Limits.KMulti = kmulti
	r.Limits.MaxIters = iters
	r.Limits.MaxNodes = 20000
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract.ILPContext(context.Background(), ex, cost.NewT4(), extract.ILPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("extracted graph invalid: %v", err)
	}
	return res
}

func TestRuleSetParses(t *testing.T) {
	rs := Default()
	if len(rs) < 40 {
		t.Fatalf("rule set has only %d rules", len(rs))
	}
	multi := 0
	for _, r := range rs {
		if r.IsMulti() {
			multi++
		}
	}
	if multi < 4 {
		t.Fatalf("only %d multi-pattern rules", multi)
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.Name] {
			t.Fatalf("duplicate rule name %s", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestFusionFindsFusedConvRelu(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 64, 14, 14)
	w := b.Weight("w", 64, 64, 3, 3)
	g := b.MustFinish(b.Relu(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w)))
	res := optimize(t, g, 0, 5)
	h := res.Graph.OpHistogram()
	if h[tensor.OpRelu] != 0 {
		t.Fatalf("relu not fused: %v", tensor.HistogramString(h))
	}
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost >= orig {
		t.Fatalf("fusion did not reduce cost: %v >= %v", res.Cost, orig)
	}
}

func TestMatmulFusionAndAssociativity(t *testing.T) {
	// tanh(x W1 W2): fusing tanh and reassociating (W1 W2 foldable!)
	// should collapse to a single fused matmul with a precomputed weight.
	b := tensor.NewBuilder()
	x := b.Input("x", 32, 256)
	w1 := b.Weight("w1", 256, 256)
	w2 := b.Weight("w2", 256, 256)
	g := b.MustFinish(b.Tanh(b.Matmul(tensor.ActNone, b.Matmul(tensor.ActNone, x, w1), w2)))
	res := optimize(t, g, 0, 6)
	h := res.Graph.OpHistogram()
	if h[tensor.OpTanh] != 0 {
		t.Fatalf("tanh not fused: %v", tensor.HistogramString(h))
	}
	if h[tensor.OpMatmul] != 2 {
		// matmul(x, matmul(w1,w2)): the inner matmul is weight-only and
		// therefore free; two matmul nodes remain but one costs zero.
		t.Fatalf("expected reassociated weight matmul: %v", tensor.HistogramString(h))
	}
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost >= orig/1.5 {
		t.Fatalf("reassociation gain too small: %v vs %v", res.Cost, orig)
	}
}

func TestTransposeInverseCancellation(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 16)
	g := b.MustFinish(b.Relu(b.Transpose(b.Transpose(x, 1, 0), 1, 0)))
	res := optimize(t, g, 0, 5)
	h := res.Graph.OpHistogram()
	if h[tensor.OpTranspose] != 0 {
		t.Fatalf("double transpose not cancelled: %v", tensor.HistogramString(h))
	}
}

func TestTransposeNonInverseKept(t *testing.T) {
	// transpose by (1 2 0) twice is NOT the identity on rank 3.
	b := tensor.NewBuilder()
	x := b.Input("x", 2, 3, 4)
	g := b.MustFinish(b.Relu(b.Transpose(b.Transpose(x, 1, 2, 0), 1, 2, 0)))
	res := optimize(t, g, 0, 4)
	h := res.Graph.OpHistogram()
	if h[tensor.OpTranspose] == 0 {
		t.Fatalf("non-inverse transposes wrongly cancelled: %v", tensor.HistogramString(h))
	}
}

func TestMultiPatternMatmulMergeWins(t *testing.T) {
	// Figure 8: several matmuls sharing an input merge into one.
	b := tensor.NewBuilder()
	x := b.Input("x", 64, 256)
	w1 := b.Weight("w1", 256, 256)
	w2 := b.Weight("w2", 256, 256)
	h1 := b.Matmul(tensor.ActNone, x, w1)
	h2 := b.Matmul(tensor.ActNone, x, w2)
	g := b.MustFinish(h1, h2)
	res := optimize(t, g, 1, 4)
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost >= orig {
		t.Fatalf("matmul merge found no gain: %v >= %v", res.Cost, orig)
	}
	h := res.Graph.OpHistogram()
	if h[tensor.OpMatmul] != 1 {
		t.Fatalf("expected a single merged matmul: %v", tensor.HistogramString(h))
	}
}

func TestFigure10ConvAddPattern(t *testing.T) {
	// ewadd(conv(x,w1), conv(y,w2)) => conv(concat(x,y), concat(w1,w2)).
	// The weight concat folds; one conv replaces two convs and an add.
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 32, 14, 14)
	y := b.Input("y", 1, 32, 14, 14)
	w1 := b.Weight("w1", 64, 32, 3, 3)
	w2 := b.Weight("w2", 64, 32, 3, 3)
	g := b.MustFinish(b.Ewadd(
		b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w1),
		b.Conv(1, 1, tensor.PadSame, tensor.ActNone, y, w2)))
	res := optimize(t, g, 0, 5)
	h := res.Graph.OpHistogram()
	if h[tensor.OpConv] != 1 || h[tensor.OpEwadd] != 0 {
		t.Fatalf("figure 10 rewrite not extracted: %v", tensor.HistogramString(h))
	}
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost >= orig {
		t.Fatalf("no gain: %v >= %v", res.Cost, orig)
	}
}

func TestEnlargeEnablesMixedKernelMerge(t *testing.T) {
	// A 1x1 conv and a 3x3 conv on the same input (inception-style
	// branches) merge after kernel enlargement.
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 32, 14, 14)
	w1 := b.Weight("w1", 32, 32, 1, 1)
	w3 := b.Weight("w3", 32, 32, 3, 3)
	c1 := b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w1)
	c3 := b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w3)
	g := b.MustFinish(b.Concat(1, c1, c3))
	res := optimize(t, g, 1, 4)
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost >= orig {
		t.Fatalf("mixed-kernel merge found no gain: %v >= %v", res.Cost, orig)
	}
	if h := res.Graph.OpHistogram(); h[tensor.OpConv] != 1 {
		t.Fatalf("expected a single merged conv: %v", tensor.HistogramString(h))
	}
}

func TestConcatSplitRoundTripSound(t *testing.T) {
	// Optimization must preserve output shapes on a graph that already
	// contains concat/split structure.
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 24)
	mm := b.Matmul(tensor.ActNone, x, b.Concat(1, w1, w2))
	s0, s1 := b.Split(1, 16, mm)
	g := b.MustFinish(b.Relu(s0), b.Tanh(s1))
	res := optimize(t, g, 1, 4)
	for i, out := range res.Graph.Outputs {
		if !out.Meta.Shape.Equal(g.Outputs[i].Meta.Shape) {
			t.Fatalf("output %d shape changed: %v -> %v", i, g.Outputs[i].Meta.Shape, out.Meta.Shape)
		}
	}
}

func TestGroupedConvMerge(t *testing.T) {
	// A 32-group conv can be rewritten to 16 groups via merge; with the
	// group penalty this is cheaper for small per-group work.
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 64, 14, 14)
	w := b.Weight("w", 64, 2, 3, 3) // 32 groups
	g := b.MustFinish(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w))
	res := optimize(t, g, 0, 4)
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost > orig {
		t.Fatalf("grouped conv optimization made things worse: %v > %v", res.Cost, orig)
	}
	if h := res.Graph.OpHistogram(); h[tensor.OpMerge] == 0 && res.Cost < orig {
		t.Fatalf("gain without merge is suspicious: %v", tensor.HistogramString(h))
	}
}

func TestOptimizationIsIdempotentOnOptimal(t *testing.T) {
	// Optimizing an already-optimal single conv changes nothing.
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 8, 8, 8)
	w := b.Weight("w", 8, 8, 3, 3)
	g := b.MustFinish(b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, x, w))
	res := optimize(t, g, 1, 4)
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost > orig+1e-9 {
		t.Fatalf("optimizer regressed an optimal graph: %v > %v", res.Cost, orig)
	}
}

// TestConvConditions pins where the two conv conditions hold: kernel
// enlargement only where the first kernel grows, and the Figure 9
// merge only on ungrouped weights. A condition that always holds
// fails every false row.
func TestConvConditions(t *testing.T) {
	byName := make(map[string]*rewrite.Rule)
	for _, r := range Multi() {
		byName[r.Name] = r
	}
	ts := func(dims ...int) *tensor.Meta { return &tensor.Meta{Kind: tensor.KindTensor, Shape: dims} }
	x := ts(1, 8, 6, 6)
	for _, tc := range []struct {
		rule, name string
		bind       map[string]*tensor.Meta
		want       bool
	}{
		{"enlarge-conv-kernel", "1x1 vs 3x3", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 1, 1), "?w2": ts(4, 8, 3, 3)}, true},
		{"enlarge-conv-kernel", "1x3 vs 3x3", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 1, 3), "?w2": ts(4, 8, 3, 3)}, true},
		{"enlarge-conv-kernel", "3x3 vs 3x3", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 3, 3), "?w2": ts(6, 8, 3, 3)}, false},
		{"enlarge-conv-kernel", "3x1 vs 1x3", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 3, 1), "?w2": ts(4, 8, 1, 3)}, false},
		{"enlarge-conv-kernel", "3x3 vs 1x1", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 3, 3), "?w2": ts(4, 8, 1, 1)}, false},
		{"merge-convs-shared-input", "ungrouped", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 3, 3), "?w2": ts(6, 8, 1, 1)}, true},
		{"merge-convs-shared-input", "first grouped", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 2, 3, 3), "?w2": ts(6, 8, 3, 3)}, false},
		{"merge-convs-shared-input", "second grouped", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 8, 3, 3), "?w2": ts(4, 2, 3, 3)}, false},
		{"merge-convs-shared-input", "both grouped", map[string]*tensor.Meta{"?x": x, "?w1": ts(4, 2, 3, 3), "?w2": ts(4, 2, 3, 3)}, false},
	} {
		r := byName[tc.rule]
		if r == nil || r.Cond == nil {
			t.Fatalf("%s: not a conditional builtin", tc.rule)
		}
		if got := r.Cond(func(v string) *tensor.Meta { return tc.bind[v] }); got != tc.want {
			t.Errorf("%s, %s: Cond = %v, want %v", tc.rule, tc.name, got, tc.want)
		}
	}
}

// TestMergeConvsSkipsGroupedWeights: concatenating two grouped weights
// on output channels regroups them, so a merge of grouped convs would
// union a conv with a split that computes another value. x is
// 1x8x6x6 and w 4x2x3x3 (four groups).
func TestMergeConvsSkipsGroupedWeights(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 8, 6, 6)
	w := b.Weight("w", 4, 2, 3, 3)
	one := b.MustFinish(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w))
	r := rewrite.NewRunner(Default())
	r.Limits.KMulti = 1
	ex, err := r.RunContext(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ex.G.Class(ex.Root).Nodes {
		if n := ex.G.Node(id); n.Op == egraph.Op(tensor.OpSplit0) {
			t.Errorf("root class holds %s: a grouped conv merged with itself", ex.G.NodeString(*n))
		}
	}

	b = tensor.NewBuilder()
	x = b.Input("x", 1, 8, 6, 6)
	w1 := b.Weight("w1", 4, 2, 3, 3)
	w2 := b.Weight("w2", 4, 2, 3, 3)
	two := b.MustFinish(
		b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w1),
		b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w2))
	ex, err = r.RunContext(context.Background(), two)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := extract.GreedyContext(context.Background(), ex, cost.NewT4())
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, two, greedy.Graph)
	ilp, err := extract.ILPContext(context.Background(), ex, cost.NewT4(), extract.ILPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, two, ilp.Graph)
}

// TestNoEnlargeCopiesAWeight guards the class of bug the
// enlarge-conv-kernel condition fixes: a kernel "enlarged" to its own
// size is a copy of the weight under a class of its own, and the conv
// merges then build every concatenation of every copy. No enlarge
// e-node in any conv model's e-graph may hold the shape of the kernel
// it enlarges.
func TestNoEnlargeCopiesAWeight(t *testing.T) {
	for _, m := range append(models.Benchmarks(), models.Extras()...) {
		g := m.Build(models.ScaleTest)
		if g.OpHistogram()[tensor.OpConv] == 0 {
			continue
		}
		for _, kmulti := range []int{1, 2} {
			r := rewrite.NewRunner(Default())
			r.Limits.KMulti = kmulti
			r.Limits.MaxIters = 15
			r.Limits.MaxNodes = 10000
			ex, err := r.RunContext(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			copies := 0
			ex.G.Classes(func(c *egraph.Class) {
				for _, id := range c.Nodes {
					n := ex.G.Node(id)
					if n.Op == egraph.Op(tensor.OpEnlarge) &&
						rewrite.ClassMeta(ex.G, c.ID).Shape.Equal(rewrite.ClassMeta(ex.G, n.Children[0]).Shape) {
						copies++
					}
				}
			})
			if copies > 0 {
				t.Errorf("%s at k_multi %d: %d enlarge e-nodes keep their kernel's shape", m.Name, kmulti, copies)
			}
		}
	}
}
