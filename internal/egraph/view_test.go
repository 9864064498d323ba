package egraph

import (
	"sync"
	"testing"
)

// buildViewGraph makes a small e-graph with a few unions so that path
// compression has something to do: f(a), f(b), g(a,b) with a ~ b.
func buildViewGraph(t *testing.T) (*EGraph, ClassID, ClassID) {
	t.Helper()
	g := New(nil)
	a := g.Add(Node{Op: 1, Str: "a"})
	b := g.Add(Node{Op: 1, Str: "b"})
	fa := g.Add(NewNode(2, a))
	fb := g.Add(NewNode(2, b))
	g.Add(NewNode(3, a, b))
	g.Union(a, b)
	g.Rebuild()
	return g, fa, fb
}

func TestFreezeMatchesFind(t *testing.T) {
	g, fa, fb := buildViewGraph(t)
	v := g.Freeze()
	// Congruence: f(a) and f(b) merged after a ~ b.
	if v.Find(fa) != v.Find(fb) {
		t.Fatalf("view missed congruent merge: %d vs %d", v.Find(fa), v.Find(fb))
	}
	for i := 0; i < g.uf.size(); i++ {
		id := ClassID(i)
		if got, want := v.Find(id), g.Find(id); got != want {
			t.Fatalf("view.Find(%d) = %d, egraph.Find = %d", id, got, want)
		}
	}
	if v.ClassCount() != g.ClassCount() {
		t.Fatalf("view has %d classes, egraph %d", v.ClassCount(), g.ClassCount())
	}
	// Classes are sorted ascending, mirroring EGraph.Classes order.
	prev := ClassID(-1)
	for _, cls := range v.Classes() {
		if cls.ID <= prev {
			t.Fatalf("view classes not sorted: %d after %d", cls.ID, prev)
		}
		prev = cls.ID
	}
}

func TestFreezeRebuildsDirtyGraph(t *testing.T) {
	g := New(nil)
	a := g.Add(Node{Op: 1, Str: "a"})
	b := g.Add(Node{Op: 1, Str: "b"})
	fa := g.Add(NewNode(2, a))
	fb := g.Add(NewNode(2, b))
	g.Union(a, b) // no Rebuild: freeze must repair congruence itself
	v := g.Freeze()
	if v.Find(fa) != v.Find(fb) {
		t.Fatal("Freeze did not rebuild a dirty e-graph")
	}
}

// stale reports whether g was mutated (Add, Union, or a Rebuild that
// had work to do) since v was frozen from it: whether the ids it has
// issued, its canonical classes or their node lists differ from what
// v recorded.
func stale(g *EGraph, v *View) bool {
	if g.uf.size() != len(v.find) || g.classCount != len(v.classes) {
		return true
	}
	for _, cls := range v.classes {
		if g.classes[cls.ID] != cls || len(cls.Nodes) != len(v.classNodes[cls.ID]) {
			return true
		}
	}
	return false
}

func TestViewStaleness(t *testing.T) {
	g, fa, fb := buildViewGraph(t)
	v := g.Freeze()
	if stale(g, v) {
		t.Fatal("fresh view reports stale")
	}
	g.Rebuild() // no-op rebuild must not invalidate the view
	if stale(g, v) {
		t.Fatal("no-op rebuild invalidated the view")
	}
	g.Add(Node{Op: 9, Str: "new"})
	if !stale(g, v) {
		t.Fatal("Add did not invalidate the view")
	}
	v2 := g.Freeze()
	if stale(g, v2) {
		t.Fatal("refrozen view reports stale")
	}
	g.Union(fa, fb) // already equal: no change, still fresh
	if stale(g, v2) {
		t.Fatal("no-op union invalidated the view")
	}
}

func TestViewConcurrentReads(t *testing.T) {
	g, _, _ := buildViewGraph(t)
	v := g.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for _, cls := range v.Classes() {
					if v.Find(cls.ID) != cls.ID {
						t.Error("canonical class not self-canonical")
						return
					}
					for _, n := range cls.Nodes {
						for _, ch := range v.Node(n).Children {
							v.Nodes(ch)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
