package rewrite

import (
	"context"
	"strings"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// twoMatmulGraph is the motivating example of Figure 2: two matmuls
// sharing input1.
func twoMatmulGraph(t *testing.T) *tensor.Graph {
	t.Helper()
	b := tensor.NewBuilder()
	x := b.Input("input1", 8, 32)
	w2 := b.Weight("input2", 32, 16)
	w3 := b.Weight("input3", 32, 16)
	h1 := b.Matmul(tensor.ActNone, x, w2)
	h2 := b.Matmul(tensor.ActNone, x, w3)
	g, err := b.Finish(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// figure2Rule is the multi-pattern rewrite of Figure 2.
func figure2Rule(t *testing.T) *Rule {
	t.Helper()
	r, err := NewMultiRule("matmul-merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIngest(t *testing.T) {
	g := twoMatmulGraph(t)
	eg, root, ids, err := Ingest(g)
	if err != nil {
		t.Fatal(err)
	}
	if eg.ClassCount() == 0 || len(ids) != len(g.Nodes()) {
		t.Fatalf("ingest: %d classes, %d ids for %d nodes", eg.ClassCount(), len(ids), len(g.Nodes()))
	}
	if m := ClassMeta(eg, root); m == nil || m.Kind != tensor.KindTensor {
		t.Fatalf("root meta = %v", m)
	}
	// Shared input ingested once.
	if eg.NodeCount() != len(g.Nodes()) {
		t.Fatalf("e-nodes %d != graph nodes %d", eg.NodeCount(), len(g.Nodes()))
	}
}

func TestSingleRuleSaturates(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	y := b.Input("y", 4, 4)
	g := b.MustFinish(b.Ewadd(x, y))
	r := NewRunner([]*Rule{MustRule("ewadd-comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")})
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop != StopSaturated {
		t.Fatalf("commutativity did not saturate: %+v", ex.Stats)
	}
	// Both orientations are present in the root class.
	ms := pattern.SearchView(ex.G.Freeze(), pattern.MustParse("(ewadd ?a ?b)"))
	if len(ms) != 2 {
		t.Fatalf("found %d ewadd nodes, want 2 (both orders)", len(ms))
	}
}

// TestShapeCheckBlocksBadRewrite runs rules whose targets must not pass
// the shape check. One swaps matmul operands that cannot multiply (x:
// 4x8, y: 8x16). The other is a hand-built Rule whose target names a
// variable no source binds: NewRule refuses such a rule, but Rule is a
// plain struct, and the compiled rule leaves that variable's slot
// unfilled, which must not read as class 0 (the input x, with whose
// shape the target would fit).
func TestShapeCheckBlocksBadRewrite(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 8)
	y := b.Weight("y", 8, 16)
	matmul := b.MustFinish(b.Matmul(tensor.ActNone, x, y))
	b = tensor.NewBuilder()
	relu := b.MustFinish(b.Relu(b.Input("x", 4, 4)))
	for _, tc := range []struct {
		g    *tensor.Graph
		rule *Rule
	}{
		{matmul, MustRule("bogus-swap", "(matmul ?a ?x ?y)", "(matmul ?a ?y ?x)")},
		{relu, &Rule{Name: "unbound-target-variable",
			Sources: []*pattern.Pat{pattern.MustParse("(relu ?x)")},
			Targets: []*pattern.Pat{pattern.MustParse("(ewadd ?x ?y)")}}},
	} {
		ex, err := NewRunner([]*Rule{tc.rule}).RunContext(context.Background(), tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Stats.Applied != 0 || ex.Stats.SkippedShape == 0 {
			t.Errorf("%s: shape check failed to block: %+v", tc.rule.Name, ex.Stats)
		}
	}
}

func TestConditionBlocksRewrite(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	g := b.MustFinish(b.Relu(x))
	rule := MustRule("gated", "(relu ?x)", "(relu (relu ?x))")
	calls := 0
	rule.Cond = func(func(string) *tensor.Meta) bool {
		calls++
		return false
	}
	r := NewRunner([]*Rule{rule})
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("condition never evaluated")
	}
	if ex.Stats.Applied != 0 {
		t.Fatalf("condition did not block: %+v", ex.Stats)
	}
}

func TestMultiPatternFigure2(t *testing.T) {
	g := twoMatmulGraph(t)
	r := NewRunner([]*Rule{figure2Rule(t)})
	r.Limits.KMulti = 1
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Applied == 0 {
		t.Fatalf("figure 2 rule never applied: %+v", ex.Stats)
	}
	// The merged matmul over concatenated weights must now exist.
	merged := pattern.MustParse("(matmul ?a ?x (concat2 1 ?y ?z))")
	if len(pattern.SearchView(ex.G.Freeze(), merged)) == 0 {
		t.Fatal("merged matmul absent from e-graph")
	}
	// And the split nodes live in the original outputs' classes.
	s0 := pattern.MustParse("(split0 (split 1 ?t))")
	if len(pattern.SearchView(ex.G.Freeze(), s0)) == 0 {
		t.Fatal("split0 absent from e-graph")
	}
}

func TestMultiPatternNeedsSharedInput(t *testing.T) {
	// Two matmuls with *different* left inputs: rule may fire on the
	// diagonal (same matmul twice) but must not merge across inputs.
	b := tensor.NewBuilder()
	x1 := b.Input("x1", 8, 32)
	x2 := b.Input("x2", 8, 32)
	w1 := b.Weight("w1", 32, 16)
	w2 := b.Weight("w2", 32, 16)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x1, w1), b.Matmul(tensor.ActNone, x2, w2))
	r := NewRunner([]*Rule{figure2Rule(t)})
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// No concat of w1 and w2 may appear (they belong to different inputs).
	cross := pattern.MustParse("(concat2 1 (weight \"w1@32 16\") (weight \"w2@32 16\"))")
	if len(pattern.SearchView(ex.G.Freeze(), cross)) != 0 {
		t.Fatal("incompatible multi-pattern match was applied")
	}
}

func TestKMultiZeroDisablesMultiRules(t *testing.T) {
	g := twoMatmulGraph(t)
	r := NewRunner([]*Rule{figure2Rule(t)})
	r.Limits.KMulti = 0
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Applied != 0 {
		t.Fatalf("multi rule fired with k_multi=0: %+v", ex.Stats)
	}
}

func TestCycleFilteringKeepsEGraphAcyclic(t *testing.T) {
	// Figure 3: after the Figure 2 rewrite, picking split1 in the rhs
	// class would create a cycle; the filter must prevent that.
	g := twoMatmulGraph(t)
	for _, mode := range []FilterMode{FilterEfficient, FilterVanilla} {
		r := NewRunner([]*Rule{figure2Rule(t)})
		r.Filter = mode
		r.Limits.MaxIters = 4
		r.Limits.KMulti = 2
		ex, err := r.RunContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !IsAcyclic(ex.G, &ex.Filtered) {
			t.Fatalf("%v filtering left a cyclic e-graph", mode)
		}
	}
}

// TestPreFilterRejectsCycle gives the pre-filter a substitution that
// adds a node and would close a cycle. The rule, made up for the test,
// matches relu(x) together with tanh(sigmoid(relu(x))) and puts
// ewadd(x, sigmoid(relu(x))) into relu(x)'s class, so the new node's
// child reaches its own class. Both filters must reject the one match
// (not apply it, not find it redundant) and leave the e-graph acyclic;
// without a filter the same match is applied.
func TestPreFilterRejectsCycle(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	g := b.MustFinish(b.Tanh(b.Sigmoid(b.Relu(x))))
	rule := MustMultiRule("cyclic", "(relu ?r) (tanh ?t)", "(ewadd ?r ?t) (tanh ?t)")
	for _, mode := range []FilterMode{FilterEfficient, FilterVanilla, FilterNone} {
		r := NewRunner([]*Rule{rule})
		r.Filter = mode
		r.Limits.MaxIters = 1
		ex, err := r.RunContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want := Stats{Matches: 1, SkippedCycle: 1}
		if mode == FilterNone {
			want = Stats{Matches: 1, Applied: 1}
		}
		s := ex.Stats
		if s.Matches != want.Matches || s.Applied != want.Applied || s.Redundant != 0 ||
			s.SkippedShape != 0 || s.SkippedCycle != want.SkippedCycle {
			t.Fatalf("%v: %+v, want Matches %d Applied %d SkippedCycle %d",
				mode, s, want.Matches, want.Applied, want.SkippedCycle)
		}
		if mode != FilterNone && !IsAcyclic(ex.G, &ex.Filtered) {
			t.Fatalf("%v filtering left a cyclic e-graph", mode)
		}
	}
}

func TestFilterNoneMayLeaveCycles(t *testing.T) {
	g := twoMatmulGraph(t)
	r := NewRunner([]*Rule{figure2Rule(t)})
	r.Filter = FilterNone
	r.Limits.MaxIters = 4
	r.Limits.KMulti = 2
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// With no filtering the Figure 3 cycle is expected to exist.
	if IsAcyclic(ex.G, &ex.Filtered) {
		t.Log("note: e-graph happens to be acyclic (rule application order)")
	}
	if filteredCount(ex.G, &ex.Filtered) != 0 {
		t.Fatal("FilterNone must not populate the filter list")
	}
}

func TestNodeLimitStopsExploration(t *testing.T) {
	g := twoMatmulGraph(t)
	r := NewRunner([]*Rule{figure2Rule(t)})
	r.Limits.MaxNodes = 12 // graph itself is about this size
	r.Limits.KMulti = 3
	r.Limits.MaxIters = 10
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop != StopNodeLimit {
		t.Fatalf("node limit not reported: %+v", ex.Stats)
	}
}

func TestIterLimit(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	y := b.Input("y", 4, 4)
	g := b.MustFinish(b.Ewadd(x, y))
	// assoc-style rule that keeps growing: x+y => (x+y)+0? Use comm rule
	// with small iter limit instead; it saturates in 1 iteration, so use
	// MaxIters=0 to check the limit path.
	r := NewRunner([]*Rule{MustRule("ewadd-comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")})
	r.Limits.MaxIters = 0
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop != StopIterLimit || ex.Stats.Iterations != 0 {
		t.Fatalf("iter limit not honored: %+v", ex.Stats)
	}
}

func TestVanillaAndEfficientAgree(t *testing.T) {
	// Both filters must produce e-graphs representing the same terms
	// (same node counts here, since rule application order is fixed).
	g := twoMatmulGraph(t)
	counts := map[FilterMode]int{}
	for _, mode := range []FilterMode{FilterEfficient, FilterVanilla} {
		r := NewRunner([]*Rule{figure2Rule(t)})
		r.Filter = mode
		r.Limits.KMulti = 1
		ex, err := r.RunContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		counts[mode] = ex.G.NodeCount()
	}
	if counts[FilterEfficient] != counts[FilterVanilla] {
		t.Fatalf("filters diverge: efficient=%d vanilla=%d",
			counts[FilterEfficient], counts[FilterVanilla])
	}
}

func TestDescendantsComputation(t *testing.T) {
	g := twoMatmulGraph(t)
	eg, root, ids, err := Ingest(g)
	if err != nil {
		t.Fatal(err)
	}
	desc := orderOf(eg, &FilterSet{})
	// Every other class is below the root.
	for _, id := range ids {
		if eg.Find(id) != eg.Find(root) && !desc.reaches(eg.Find(root), eg.Find(id)) {
			t.Fatalf("class %d not a descendant of root", id)
		}
	}
	// Leaves have no descendants... except parameter-free leaves.
	for n, id := range ids {
		if len(n.Inputs) == 0 {
			eg.Classes(func(cls *egraph.Class) {
				if desc.reaches(eg.Find(id), cls.ID) {
					t.Fatalf("leaf %v has descendant e%d", n.Op, cls.ID)
				}
			})
		}
	}
}

func TestRuleValidation(t *testing.T) {
	if _, err := NewRule("bad", "(relu ?x)", "(relu ?y)"); err == nil {
		t.Fatal("unbound target variable accepted")
	}
	if _, err := NewMultiRule("bad", "(relu ?x)", "(relu ?x) (tanh ?x)"); err == nil {
		t.Fatal("mismatched source/target counts accepted")
	}
	r := MustMultiRule("ok", "(relu ?x) (tanh ?x)", "(tanh ?x) (relu ?x)")
	if !r.IsMulti() {
		t.Fatal("IsMulti false for 2-source rule")
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBidirectional(t *testing.T) {
	rules := Bidirectional("comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")
	if len(rules) != 2 || rules[1].Name != "comm-rev" {
		t.Fatalf("Bidirectional = %v", rules)
	}
}

// Every filter mode survives MarshalText → UnmarshalText and String
// reads the same name; an unknown name leaves the value alone and lists
// the known ones.
func TestFilterModeTextRoundTrip(t *testing.T) {
	for _, want := range []FilterMode{FilterEfficient, FilterVanilla, FilterNone} {
		text, err := want.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got FilterMode = -1
		if err := got.UnmarshalText(text); err != nil || got != want || want.String() != string(text) {
			t.Errorf("%q: UnmarshalText = %v, %v; want %v", text, got, err, want)
		}
	}
	got := FilterNone
	if err := got.UnmarshalText([]byte("vanila")); err == nil || !strings.HasSuffix(err.Error(), `"vanila" (known: efficient, vanilla, none)`) || got != FilterNone {
		t.Errorf("unknown name: %v, value %v", err, got)
	}
	if _, err := FilterMode(3).MarshalText(); err == nil {
		t.Error("a filter mode with no name marshaled")
	}
}
