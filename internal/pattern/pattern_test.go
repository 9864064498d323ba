package pattern

import (
	"reflect"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

func TestParsePatterns(t *testing.T) {
	p, err := Parse("(matmul ?act ?x (concat2 1 ?y ?z))")
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != tensor.OpMatmul || len(p.Children) != 3 {
		t.Fatalf("parsed %v", p)
	}
	cat := p.Children[2]
	if cat.Op != tensor.OpConcat2 || cat.Children[0].Op != tensor.OpInt || cat.Children[0].Int != 1 {
		t.Fatalf("concat child %v", cat)
	}
	if got := p.Vars(); len(got) != 4 || got[0] != "?act" || got[3] != "?z" {
		t.Fatalf("Vars = %v", got)
	}
}

func TestParseRejectsBadPatterns(t *testing.T) {
	for _, src := range []string{
		"(nosuchop ?x)",
		"(ewadd ?x)",       // arity
		"(ewadd ?x ?y ?z)", // arity
		"?",                // bare question mark
		"((ewadd) ?x ?y)",  // non-atom head
		"()",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseInputWeightLiterals(t *testing.T) {
	p, err := Parse(`(weight "w@4 4")`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != tensor.OpWeight || p.Str != "w@4 4" {
		t.Fatalf("parsed %v", p)
	}
}

func TestCanonical(t *testing.T) {
	a := MustParse("(ewadd ?x (ewmul ?y ?x))")
	b := MustParse("(ewadd ?p (ewmul ?q ?p))")
	ca, backA := a.Canonical()
	cb, _ := b.Canonical()
	if ca.String() != cb.String() {
		t.Fatalf("alpha-equivalent patterns canonicalize differently: %s vs %s", ca, cb)
	}
	if backA["?0"] != "?x" || backA["?1"] != "?y" {
		t.Fatalf("rename map %v", backA)
	}
	// Different structure stays different.
	c := MustParse("(ewadd (ewmul ?y ?x) ?x)")
	cc, _ := c.Canonical()
	if cc.String() == ca.String() {
		t.Fatal("structurally different patterns collided")
	}
}

// buildMatmulEGraph ingests matmul(act=0, x, w) into an e-graph with
// metas by hand.
func buildMatmulEGraph(t *testing.T) (*egraph.EGraph, egraph.ClassID, egraph.ClassID, egraph.ClassID) {
	t.Helper()
	g := egraph.New(shapes{})
	act := g.Add(egraph.IntNode(egraph.Op(tensor.OpInt), 0))
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@8 32"))
	w := g.Add(egraph.StrNode(egraph.Op(tensor.OpWeight), "w@32 16"))
	mm := g.Add(egraph.NewNode(egraph.Op(tensor.OpMatmul), act, x, w))
	return g, mm, x, w
}

func TestSearchFindsMatch(t *testing.T) {
	g, mm, x, w := buildMatmulEGraph(t)
	p := MustParse("(matmul ?a ?x ?y)")
	ms := Search(g, p)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	m := ms[0]
	if g.Find(m.Class) != g.Find(mm) {
		t.Fatalf("match class %d, want %d", m.Class, mm)
	}
	if g.Find(m.Subst["?x"]) != g.Find(x) || g.Find(m.Subst["?y"]) != g.Find(w) {
		t.Fatalf("bindings %v", m.Subst)
	}
}

func TestSearchLiteralPayloadMustMatch(t *testing.T) {
	g, _, _, _ := buildMatmulEGraph(t)
	if ms := Search(g, MustParse("(matmul 0 ?x ?y)")); len(ms) != 1 {
		t.Fatalf("literal-activation pattern: %d matches, want 1", len(ms))
	}
	if ms := Search(g, MustParse("(matmul 2 ?x ?y)")); len(ms) != 0 {
		t.Fatalf("wrong activation literal matched: %d", len(ms))
	}
}

func TestSearchNonLinearPattern(t *testing.T) {
	// (ewadd ?x ?x) must only match when both children are the same class.
	g := egraph.New(nil)
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4"))
	y := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "y@4"))
	xx := g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), x, x))
	g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), x, y))
	ms := Search(g, MustParse("(ewadd ?x ?x)"))
	if len(ms) != 1 || g.Find(ms[0].Class) != g.Find(xx) {
		t.Fatalf("non-linear match = %v", ms)
	}
	// After x = y both ewadds become self-additions of the merged class.
	g.Union(x, y)
	g.Rebuild()
	ms = Search(g, MustParse("(ewadd ?x ?x)"))
	if len(ms) != 1 { // the two nodes are congruent post-merge
		t.Fatalf("after union: %d matches", len(ms))
	}
}

func TestSearchMatchesAllClassNodes(t *testing.T) {
	// A class holding two different ops yields matches for both patterns.
	g := egraph.New(nil)
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4"))
	r := g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), x))
	th := g.Add(egraph.NewNode(egraph.Op(tensor.OpTanh), x))
	g.Union(r, th)
	g.Rebuild()
	if len(Search(g, MustParse("(relu ?x)"))) != 1 {
		t.Fatal("relu not found in merged class")
	}
	if len(Search(g, MustParse("(tanh ?x)"))) != 1 {
		t.Fatal("tanh not found in merged class")
	}
}

func TestInstantiate(t *testing.T) {
	g, mm, x, w := buildMatmulEGraph(t)
	subst := Subst{"?x": x, "?w": w}
	id, err := Instantiate(g, MustParse("(matmul 0 ?x ?w)"), subst)
	if err != nil {
		t.Fatal(err)
	}
	if g.Find(id) != g.Find(mm) {
		t.Fatal("instantiating an existing expression should hash-cons to its class")
	}
	id2, err := Instantiate(g, MustParse("(relu (matmul 0 ?x ?w))"), subst)
	if err != nil {
		t.Fatal(err)
	}
	cls := g.Class(id2)
	if n := g.Node(cls.Nodes[0]); n.Op != egraph.Op(tensor.OpRelu) {
		t.Fatalf("instantiated class root %v", n)
	}
	if _, err := Instantiate(g, MustParse("(relu ?unbound)"), subst); err == nil {
		t.Fatal("unbound variable accepted")
	}
}

func TestSearchClass(t *testing.T) {
	g, mm, _, _ := buildMatmulEGraph(t)
	if ms := SearchClass(g, MustParse("(matmul ?a ?x ?y)"), mm); len(ms) != 1 {
		t.Fatalf("SearchClass at root: %d matches", len(ms))
	}
	p := MustParse("(relu ?x)")
	if ms := SearchClass(g, p, mm); len(ms) != 0 {
		t.Fatalf("SearchClass wrong op: %d matches", len(ms))
	}
}

func TestInferMetaShapeChecksTarget(t *testing.T) {
	xm := tensor.TensorMeta(tensor.Shape{8, 32})
	ym := tensor.TensorMeta(tensor.Shape{32, 16})
	lookup := func(v string) (*tensor.Meta, bool) {
		switch v {
		case "?x":
			return xm, true
		case "?y":
			return ym, true
		}
		return nil, false
	}
	m, err := InferMeta(MustParse("(matmul 0 ?x ?y)"), lookup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Shape.Equal(tensor.Shape{8, 16}) {
		t.Fatalf("inferred %v", m.Shape)
	}
	// Incompatible target is rejected: y x instead of x y.
	if _, err := InferMeta(MustParse("(matmul 0 ?y ?x)"), lookup, nil); err == nil {
		t.Fatal("shape check passed for incompatible matmul")
	}
	// A split takes its boundary from the class its half joins: split0
	// that class's extent, split1 the rest. With no class, it has none.
	if _, err := InferMeta(MustParse("(split0 (split 1 ?x))"), lookup, nil); err == nil {
		t.Fatal("split with no boundary accepted")
	}
	half := tensor.TensorMeta(tensor.Shape{8, 12})
	for _, src := range []string{"(split0 (split 1 ?x))", "(split1 (split 1 ?x))"} {
		if m, err := InferMeta(MustParse(src), lookup, half); err != nil || !m.Equivalent(half) {
			t.Fatalf("%s joining %v: inferred %v, %v", src, half, m, err)
		}
	}
	// Only the split under the root takes a boundary.
	if _, err := InferMeta(MustParse("(relu (split0 (split 1 ?x)))"), lookup, half); err == nil {
		t.Fatal("a split below the root took a boundary")
	}
}

// TestTargetWalk checks the one walk of a target over an e-graph with
// metas. A present target plans nothing, returns its class and that
// class's meta, and allocates nothing. An absent one changes nothing
// and plans its nodes, each with the meta the analysis's Make gives the
// node Apply adds for it; a second walk then plans nothing and returns
// the class Apply did. A variable whose slot is past the bindings fails.
func TestTargetWalk(t *testing.T) {
	g := egraph.New(shapes{})
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))
	y := g.Add(egraph.StrNode(egraph.Op(tensor.OpWeight), "y@4 4"))
	top := g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), x, y))))
	tgt := CompileTarget(MustParse("(relu (ewadd ?a ?b))"), []string{"?a", "?b"})
	present, absent := []egraph.ClassID{x, y}, []egraph.ClassID{y, x}
	var plan Plan
	if id, m, ok := tgt.Walk(g, present, nil, &plan); !ok || id != top || m != g.Class(top).Data || len(plan.nodes) != 0 {
		t.Fatalf("present target: Walk = e%d, %v, %v with %d planned; want e%d, its meta, true, none", id, m, ok, len(plan.nodes), top)
	}
	if n := testing.AllocsPerRun(100, func() { tgt.Walk(g, present, nil, &plan) }); n != 0 {
		t.Errorf("Walk of the present target: %v allocations per run, want 0", n)
	}
	stamp := g.Stamp()
	if id, _, ok := tgt.Walk(g, absent, nil, &plan); !ok || id >= 0 || len(plan.nodes) != 2 || g.Stamp() != stamp {
		t.Fatalf("absent target: Walk = e%d, %v with %d planned, stamp %d -> %d", id, ok, len(plan.nodes), stamp, g.Stamp())
	}
	got := plan.Apply(g)
	for _, pn := range plan.nodes {
		if m := g.Class(pn.id).Data; m != pn.meta || !reflect.DeepEqual(shapes{}.Make(g, *g.Node(pn.id)), m) {
			t.Errorf("planned %s: class meta %v, planned %v, Make %v", g.NodeString(*g.Node(pn.id)), m, pn.meta, shapes{}.Make(g, *g.Node(pn.id)))
		}
	}
	if id, _, ok := tgt.Walk(g, absent, nil, &plan); !ok || id != got || len(plan.nodes) != 0 {
		t.Fatalf("after Apply: Walk = e%d, %v with %d planned; want e%d, none", id, ok, len(plan.nodes), got)
	}
	if _, _, ok := tgt.Walk(g, present[:1], nil, &plan); ok {
		t.Fatal("a variable past the bindings walked")
	}
}

func TestPatternStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"(matmul ?act ?x ?y)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))",
		"(conv 1 1 0 0 ?x ?w)",
	} {
		p := MustParse(src)
		q := MustParse(p.String())
		if p.String() != q.String() {
			t.Fatalf("round trip %q -> %q", p.String(), q.String())
		}
	}
}
