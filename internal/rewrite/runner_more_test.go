package rewrite

import (
	"context"
	"testing"
	"time"

	"tensat/internal/tensor"
)

func TestExploreTimeout(t *testing.T) {
	// Many matmuls sharing an input with unbounded multi-pattern
	// iterations: the doubly-exponential growth guarantees exploration
	// outlives a tiny timeout.
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	outs := make([]*tensor.Node, 8)
	for i := range outs {
		w := b.Weight(string(rune('a'+i)), 32, 16)
		outs[i] = b.Matmul(tensor.ActNone, x, w)
	}
	g := b.MustFinish(outs...)
	rule := MustMultiRule("merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")
	r := NewRunner([]*Rule{rule})
	r.Limits = Limits{MaxNodes: 1 << 30, MaxIters: 1 << 20, KMulti: 1 << 20, Timeout: 30 * time.Millisecond}
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop != StopTimeout {
		t.Fatalf("timeout not reported: %+v", ex.Stats)
	}
}

func TestSaturationSmallAlgebra(t *testing.T) {
	// Comm+assoc over three operands saturates to all 12 orderings.
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	y := b.Input("y", 4, 4)
	z := b.Input("z", 4, 4)
	g := b.MustFinish(b.Ewadd(x, b.Ewadd(y, z)))
	rules := []*Rule{MustRule("comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")}
	rules = append(rules, Bidirectional("assoc", "(ewadd ?x (ewadd ?y ?z))", "(ewadd (ewadd ?x ?y) ?z)")...)
	r := NewRunner(rules)
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop != StopSaturated {
		t.Fatalf("did not saturate: %+v", ex.Stats)
	}
	// Root class must contain multiple representations; e-graph stays small.
	if ex.Stats.ENodes > 40 {
		t.Fatalf("e-graph blew up on a 3-term algebra: %d nodes", ex.Stats.ENodes)
	}
}

func TestIngestRejectsNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic or error on nil graph")
		}
	}()
	_, _, _, err := Ingest(nil)
	if err != nil {
		panic(err) // treat returned error as the accepted outcome
	}
}

func TestRunnerPreservesAnalysisMetas(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 2, 6)
	w1 := b.Weight("w1", 6, 4)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w1))
	r := NewRunner([]*Rule{MustRule("fuse", "(relu (matmul 0 ?x ?y))", "(matmul 2 ?x ?y)")})
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	m := ClassMeta(ex.G, ex.Root)
	if m == nil || !m.Shape.Equal(tensor.Shape{2, 4}) {
		t.Fatalf("root meta corrupted: %v", m)
	}
}

func TestMultiPatternTripleSourceRule(t *testing.T) {
	// A contrived 3-output rule exercises the general cartesian product.
	rule := MustMultiRule("rotate3",
		"(relu ?x) (tanh ?x) (sigmoid ?x)",
		"(relu ?x) (tanh ?x) (sigmoid ?x)")
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	g := b.MustFinish(b.Relu(x), b.Tanh(x), b.Sigmoid(x))
	r := NewRunner([]*Rule{rule})
	r.Limits.KMulti = 1
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Matches == 0 {
		t.Fatal("triple-source rule found no joint match")
	}
}
