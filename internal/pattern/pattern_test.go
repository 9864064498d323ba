package pattern

import (
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

func TestSubstRename(t *testing.T) {
	s := Subst{"?0": 3, "?1": 5}
	out := s.Rename(map[string]string{"?0": "?x", "?1": "?y"})
	if out["?x"] != 3 || out["?y"] != 5 {
		t.Fatalf("renamed %v", out)
	}
}

// buildMatmulEGraph ingests matmul(act=0, x, w) into an e-graph by hand.
func buildMatmulEGraph(t *testing.T) (*egraph.EGraph, egraph.ClassID, egraph.ClassID, egraph.ClassID) {
	t.Helper()
	g := egraph.New(nil)
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
	m, err := InferMeta(MustParse("(matmul 0 ?x ?y)"), lookup)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Shape.Equal(tensor.Shape{8, 16}) {
		t.Fatalf("inferred %v", m.Shape)
	}
	// Incompatible target is rejected: y x instead of x y.
	if _, err := InferMeta(MustParse("(matmul 0 ?y ?x)"), lookup); err == nil {
		t.Fatal("shape check passed for incompatible matmul")
	}
	// Split without marker rejected.
	if _, err := InferMeta(MustParse("(split0 (split 1 ?x))"), lookup); err == nil {
		t.Fatal("split without concat marker accepted")
	}
}

// TestTargetLookup checks the probe on a present and an absent target:
// the present one reports the class Instantiate returns, the absent one
// reports false and adds nothing, and neither allocates.
func TestTargetLookup(t *testing.T) {
	g := egraph.New(nil)
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x"))
	y := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "y"))
	top := g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), x, y))))
	tgt := CompileTarget(MustParse("(relu (ewadd ?a ?b))"), []string{"?a", "?b"})
	present, absent := []egraph.ClassID{x, y}, []egraph.ClassID{y, x}
	if id, ok := tgt.Lookup(g, present); !ok || id != top {
		t.Fatalf("present target: Lookup = e%d, %v; want e%d, true", id, ok, top)
	}
	stamp := g.Stamp()
	if _, ok := tgt.Lookup(g, absent); ok || g.Stamp() != stamp {
		t.Fatalf("absent target: ok = %v, stamp %d -> %d", ok, stamp, g.Stamp())
	}
	for name, bind := range map[string][]egraph.ClassID{"present": present, "absent": absent} {
		if n := testing.AllocsPerRun(100, func() { tgt.Lookup(g, bind) }); n != 0 {
			t.Errorf("Lookup of the %s target: %v allocations per run, want 0", name, n)
		}
	}
	if id := tgt.Instantiate(g, present); id != top || g.Stamp() != stamp {
		t.Fatalf("Instantiate of the present target returned e%d and moved the stamp to %d", id, g.Stamp())
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
