package egraph

import (
	"testing"
)

// recomputeByOp builds the op index the slow way, straight from the
// view's class list — the oracle Freeze's index must match.
func recomputeByOp(v *View) map[Op][]ClassID {
	out := make(map[Op][]ClassID)
	for _, cls := range v.Classes() {
		seen := make(map[Op]bool)
		for _, n := range cls.Nodes {
			if op := v.Node(n).Op; !seen[op] {
				seen[op] = true
				out[op] = append(out[op], cls.ID)
			}
		}
	}
	return out
}

// assertOpIndex checks v's ByOp lists against the recomputed oracle:
// same classes per op, ascending ID order, no duplicates.
func assertOpIndex(t *testing.T, v *View) {
	t.Helper()
	want := recomputeByOp(v)
	ops := make(map[Op]bool)
	for _, cls := range v.Classes() {
		for _, n := range cls.Nodes {
			ops[v.Node(n).Op] = true
		}
	}
	for op := range ops {
		got := v.ByOp(op)
		if len(got) != len(want[op]) {
			t.Fatalf("ByOp(%d): %d classes, want %d", op, len(got), len(want[op]))
		}
		prev := ClassID(-1)
		for i, cls := range got {
			if cls.ID != want[op][i] {
				t.Fatalf("ByOp(%d)[%d] = e%d, want e%d", op, i, cls.ID, want[op][i])
			}
			if cls.ID <= prev {
				t.Fatalf("ByOp(%d) not strictly ascending: e%d after e%d", op, cls.ID, prev)
			}
			prev = cls.ID
		}
	}
	// Ops absent from the e-graph index to nothing.
	if l := v.ByOp(Op(999)); len(l) != 0 {
		t.Fatalf("ByOp(unknown) returned %d classes", len(l))
	}
}

// TestOpIndexFresh checks the index on a just-built e-graph.
func TestOpIndexFresh(t *testing.T) {
	g, _, _ := buildViewGraph(t)
	assertOpIndex(t, g.Freeze())
}

// TestOpIndexUnderUnionRebuild is the invalidation/refresh contract:
// after Union+Rebuild merge classes holding different ops, a fresh
// Freeze must index the merged class under every op it now contains,
// and the stale view's index must not be consulted (Stale reports it).
func TestOpIndexUnderUnionRebuild(t *testing.T) {
	g := New(nil)
	a := g.Add(Node{Op: 1, Str: "a"})
	b := g.Add(Node{Op: 2, Str: "b"}) // different op, soon same class
	fa := g.Add(NewNode(3, a))
	fb := g.Add(NewNode(3, b))
	g.Add(NewNode(4, fa))
	g.Add(NewNode(5, fb))
	v1 := g.Freeze()
	assertOpIndex(t, v1)
	if len(v1.ByOp(1)) != 1 || len(v1.ByOp(2)) != 1 {
		t.Fatal("expected distinct leaf classes before union")
	}

	g.Union(a, b)
	g.Rebuild() // merges f(a) ~ f(b) by congruence
	if !v1.Stale() {
		t.Fatal("union did not invalidate the old view")
	}
	v2 := g.Freeze()
	assertOpIndex(t, v2)

	// The merged leaf class now carries op 1 and op 2 nodes: both op
	// lists must point at the same single class.
	l1, l2 := v2.ByOp(1), v2.ByOp(2)
	if len(l1) != 1 || len(l2) != 1 || l1[0] != l2[0] {
		t.Fatalf("merged class not indexed under both ops: %v vs %v", l1, l2)
	}
	if got := v2.Find(a); l1[0].ID != got {
		t.Fatalf("op index points at e%d, canonical leaf is e%d", l1[0].ID, got)
	}
	// f(a) ~ f(b) merged: op 3 has one class; its parents (ops 4 and 5)
	// remain distinct classes.
	if len(v2.ByOp(3)) != 1 {
		t.Fatalf("congruent f-classes not merged in index: %d entries", len(v2.ByOp(3)))
	}
	if len(v2.ByOp(4)) != 1 || len(v2.ByOp(5)) != 1 {
		t.Fatal("parent classes missing from index")
	}
}

// TestDirtySinceUpwardClosure is the incremental-search soundness
// property: a union of two leaves must dirty not only the merged class
// but every ancestor reachable through parent edges — the classes
// where a match can newly appear although they were never directly
// touched.
func TestDirtySinceUpwardClosure(t *testing.T) {
	g := New(nil)
	a := g.Add(Node{Op: 1, Str: "a"})
	b := g.Add(Node{Op: 1, Str: "b"})
	c := g.Add(Node{Op: 1, Str: "c"})
	add := g.Add(NewNode(2, a, b)) // add(a,b)
	mul := g.Add(NewNode(3, c, a)) // mul(c,a): parent of c — dirty once c ~ add
	top := g.Add(NewNode(4, mul))  // relu(mul): grandparent, distance 2
	side := g.Add(NewNode(4, add)) // relu(add): parent of add — also dirty
	other := g.Add(Node{Op: 1, Str: "z"})
	lone := g.Add(NewNode(5, other)) // unrelated: must stay clean

	v1 := g.Freeze()
	base := v1.Version()

	// Merge c with add(a,b): the pattern (mul (add ?x ?y) ?z) now
	// matches at mul's class even though mul was never touched.
	g.Union(c, add)
	g.Rebuild()
	v2 := g.Freeze()
	dirty := v2.DirtySince(base)

	for name, id := range map[string]ClassID{"merged": c, "mul": mul, "top": top, "side": side} {
		if !dirty[v2.Find(id)] {
			t.Errorf("%s class e%d missing from dirty set", name, v2.Find(id))
		}
	}
	for name, id := range map[string]ClassID{"a": a, "b": b, "other": other, "lone": lone} {
		if dirty[v2.Find(id)] {
			t.Errorf("%s class e%d dirty but unchanged", name, v2.Find(id))
		}
	}

	// No mutations between freezes: nothing is dirty.
	v3 := g.Freeze()
	if n := countTrue(v3.DirtySince(v2.Version())); n != 0 {
		t.Fatalf("no-op window produced %d dirty classes", n)
	}

	// A fresh Add dirties only the new class (nothing references it yet).
	neu := g.Add(NewNode(6, top))
	v4 := g.Freeze()
	d := v4.DirtySince(v3.Version())
	if !d[v4.Find(neu)] {
		t.Fatal("new class not dirty")
	}
	if n := countTrue(d); n != 1 {
		t.Fatalf("Add dirtied %d classes, want 1", n)
	}
}

func countTrue(set []bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}
