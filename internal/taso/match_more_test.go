package taso

import (
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

func TestApplyShapeIncompatibleMatchFails(t *testing.T) {
	// A rule whose target is ill-shaped for the matched tensors must
	// return an error rather than produce an invalid graph.
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 8)
	w := b.Weight("w", 8, 16)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w))
	rule := rewrite.MustRule("bogus", "(matmul ?a ?x ?y)", "(matmul ?a ?y ?x)")
	ms := FindMatches(g, rule, 0)
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	if ng, err := Apply(g, ms[0]); err == nil {
		t.Fatalf("ill-shaped substitution accepted: %v", ng)
	}
	// A well-shaped target of another shape than what it replaces is
	// refused too: this split cuts at 3, not where the concat's first
	// operand ends, so split0 is not ?x.
	b = tensor.NewBuilder()
	s0, _ := b.Split(1, 3, b.Concat(1, b.Input("x", 4, 8), b.Input("y", 4, 8)))
	g = b.MustFinish(s0)
	rule = rewrite.MustRule("split0-of-concat", "(split0 (split ?a (concat2 ?a ?x ?y)))", "?x")
	if ms = FindMatches(g, rule, 0); len(ms) != 1 {
		t.Fatalf("split matches = %d", len(ms))
	}
	if ng, err := Apply(g, ms[0]); err == nil {
		t.Fatalf("a rewrite to another shape was accepted: %v", ng)
	}
}

// A target may name a literal of any kind, integer, string, input or
// weight, and Apply builds each one.
func TestApplyBuildsLiteralTargets(t *testing.T) {
	b := tensor.NewBuilder()
	g := b.MustFinish(b.Relu(b.Input("x", 4, 4)))
	rule := rewrite.MustRule("literals", "(relu ?x)",
		`(relu (ewadd (transpose ?x "1 0") (matmul 0 (input "y@4 4") (weight "w@4 4"))))`)
	ms := FindMatches(g, rule, 0)
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	ng, err := Apply(g, ms[0])
	if err != nil {
		t.Fatal(err)
	}
	want := `(relu (ewadd (transpose (input "x@4 4") "1 0") (matmul 0 (input "y@4 4") (weight "w@4 4"))))`
	if got := ng.String(); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestFindMatchesCap(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	var outs []*tensor.Node
	for i := 0; i < 6; i++ {
		w := b.Weight(string(rune('a'+i)), 32, 16)
		outs = append(outs, b.Matmul(tensor.ActNone, x, w))
	}
	g := b.MustFinish(outs...)
	rule := rewrite.MustRule("id", "(matmul ?a ?x ?y)", "(matmul ?a ?x ?y)")
	if ms := FindMatches(g, rule, 3); len(ms) > 3 {
		t.Fatalf("cap ignored: %d matches", len(ms))
	}
}

func TestSearchDeduplicatesGraphs(t *testing.T) {
	// Commutativity generates each graph twice; fingerprints must dedupe so
	// candidates stay bounded.
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	y := b.Input("y", 4, 4)
	g := b.MustFinish(b.Ewadd(x, y))
	res, err := Search(g, []*rewrite.Rule{rewrite.MustRule("comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")},
		cost.NewT4(), Options{N: 10, Alpha: 2.0, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Only two distinct graphs exist; the search must terminate early.
	if res.Iterations > 3 {
		t.Fatalf("dedup failed: %d iterations", res.Iterations)
	}
}

func TestSearchTraceMonotone(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 16, 14, 14)
	w := b.Weight("w", 16, 16, 3, 3)
	h := b.Relu(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w))
	g := b.MustFinish(h)
	res, err := Search(g, rules.Default(), cost.NewT4(), Options{N: 10, Alpha: 1.05, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Cost >= res.Trace[i-1].Cost {
			t.Fatalf("trace not strictly improving at %d: %v", i, res.Trace)
		}
		if res.Trace[i].At < res.Trace[i-1].At {
			t.Fatalf("trace time went backwards at %d", i)
		}
	}
	if res.Trace[len(res.Trace)-1].Cost != res.Cost {
		t.Fatalf("trace end %v != final cost %v", res.Trace[len(res.Trace)-1].Cost, res.Cost)
	}
}

func TestSearchOnAlreadyOptimalGraph(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 1, 8, 8, 8)
	w := b.Weight("w", 8, 8, 3, 3)
	g := b.MustFinish(b.Conv(1, 1, tensor.PadSame, tensor.ActRelu, x, w))
	res, err := Search(g, rules.Default(), cost.NewT4(), Options{N: 10, Alpha: 1.05, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	orig := cost.GraphCost(cost.NewT4(), g)
	if res.Cost > orig {
		t.Fatalf("search regressed: %v > %v", res.Cost, orig)
	}
}
