package taso

import (
	"strings"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

func TestFindMatchesSinglePattern(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 8, 8, 8)
	w := b.Weight("w", 8, 8, 3, 3)
	g := b.MustFinish(b.Relu(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w)))
	rule := rewrite.MustRule("conv-fuse-relu",
		"(relu (conv ?sh ?sw ?p 0 ?x ?w))", "(conv ?sh ?sw ?p 2 ?x ?w)")
	ms := FindMatches(g, rule, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0].Bind["?x"].Op != tensor.OpInput {
		t.Fatalf("binding ?x = %v", ms[0].Bind["?x"].Op)
	}
}

func TestFindMatchesMultiPattern(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 16)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w1), b.Matmul(tensor.ActNone, x, w2))
	rule := rewrite.MustMultiRule("merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")
	ms := FindMatches(g, rule, 0)
	// Pairs: (m1,m1),(m1,m2),(m2,m1),(m2,m2) all share ?x.
	if len(ms) != 4 {
		t.Fatalf("got %d joint matches, want 4", len(ms))
	}
}

func TestFindMatchesRespectsSharedVariables(t *testing.T) {
	b := tensor.NewBuilder()
	x1 := b.Input("x1", 8, 32)
	x2 := b.Input("x2", 8, 32)
	w := b.Weight("w", 32, 16)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x1, w), b.Matmul(tensor.ActNone, x2, w))
	rule := rewrite.MustMultiRule("merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")
	ms := FindMatches(g, rule, 0)
	// Only the diagonal pairs share ?x.
	if len(ms) != 2 {
		t.Fatalf("got %d joint matches, want 2 (diagonal only)", len(ms))
	}
}

// TestApplyMergeCutsSplitAtTheFirstOutput: the Figure 2 merge over
// two matmuls of different widths builds a split that cuts where the
// first output ends, so the rewritten graph computes what the input
// did, and the split in it reads split#16.
func TestApplyMergeCutsSplitAtTheFirstOutput(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 24)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w1), b.Matmul(tensor.ActNone, x, w2))
	rule := rewrite.MustMultiRule("merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")
	for _, m := range FindMatches(g, rule, 0) {
		if m.Outputs[0] != g.Outputs[0] || m.Outputs[1] != g.Outputs[1] {
			continue
		}
		ng, err := Apply(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ng.String(), "(split#16 1 ") {
			t.Fatalf("merged graph:\n%v", ng)
		}
		want, err := tensor.NewEvaluator().EvalOutputs(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tensor.NewEvaluator().EvalOutputs(ng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if d := want[i].MaxRelDiff(got[i]); d > 1e-12 {
				t.Fatalf("output %d differs by %v", i, d)
			}
		}
		return
	}
	t.Fatal("no match pairs the two outputs in order")
}

func TestApplyFusesRelu(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 8, 8, 8)
	w := b.Weight("w", 8, 8, 3, 3)
	g := b.MustFinish(b.Relu(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w)))
	rule := rewrite.MustRule("conv-fuse-relu",
		"(relu (conv ?sh ?sw ?p 0 ?x ?w))", "(conv ?sh ?sw ?p 2 ?x ?w)")
	ms := FindMatches(g, rule, 0)
	ng, err := Apply(g, ms[0])
	if err != nil {
		t.Fatal(err)
	}
	h := ng.OpHistogram()
	if h[tensor.OpRelu] != 0 || h[tensor.OpConv] != 1 {
		t.Fatalf("fusion result: %v", tensor.HistogramString(h))
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	// Original untouched (immutability).
	if g.OpHistogram()[tensor.OpRelu] != 1 {
		t.Fatal("apply mutated the source graph")
	}
}

func TestApplyRebuildsAncestors(t *testing.T) {
	// The rewritten node sits below another op; ancestors must be rebuilt.
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	y := b.Input("y", 4, 4)
	inner := b.Ewadd(x, y)
	g := b.MustFinish(b.Relu(inner))
	rule := rewrite.MustRule("comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")
	ms := FindMatches(g, rule, 0)
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	ng, err := Apply(g, ms[0])
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustText(t, ng), mustText(t, g); a == b {
		t.Fatal("apply produced an identical graph")
	}
	if ng.Root.Op != tensor.OpRelu {
		t.Fatalf("root op changed to %v", ng.Root.Op)
	}
}

func TestSearchImprovesFusibleGraph(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 32, 14, 14)
	w1 := b.Weight("w1", 32, 32, 3, 3)
	w2 := b.Weight("w2", 32, 32, 3, 3)
	h := b.Relu(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w1))
	g := b.MustFinish(b.Relu(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, h, w2)))
	model := cost.NewT4()
	res, err := Search(g, rules.Default(), model, Options{N: 20, Alpha: 1.05, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	orig := cost.GraphCost(model, g)
	if res.Cost >= orig {
		t.Fatalf("search found nothing: %v >= %v", res.Cost, orig)
	}
	if res.Graph.OpHistogram()[tensor.OpRelu] != 0 {
		t.Fatalf("relus not fused: %v", tensor.HistogramString(res.Graph.OpHistogram()))
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.BestTime > res.TotalTime {
		t.Fatalf("BestTime %v after TotalTime %v", res.BestTime, res.TotalTime)
	}
}

func TestSearchRespectsIterationBudget(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 16)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w1), b.Matmul(tensor.ActNone, x, w2))
	res, err := Search(g, rules.Default(), cost.NewT4(), Options{N: 3, Alpha: 1.05, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("iterations %d > budget 3", res.Iterations)
	}
}

func TestSearchPreservesSemanticsShapes(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 16)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w1), b.Matmul(tensor.ActNone, x, w2))
	res, err := Search(g, rules.Default(), cost.NewT4(), Options{N: 30, Alpha: 1.05, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graph.Outputs) != 2 {
		t.Fatalf("output count %d", len(res.Graph.Outputs))
	}
	for i, out := range res.Graph.Outputs {
		if !out.Meta.Shape.Equal(g.Outputs[i].Meta.Shape) {
			t.Fatalf("output %d: %v -> %v", i, g.Outputs[i].Meta.Shape, out.Meta.Shape)
		}
	}
}

// mustText is g's MarshalText.
func mustText(t *testing.T, g *tensor.Graph) string {
	t.Helper()
	data, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
