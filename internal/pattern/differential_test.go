package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// This file is the transition oracle of the compiled e-matching
// engine: on random e-graphs and random patterns, the compiled VM
// must produce the exact match list — same multiset, same order, same
// bindings — as the reference tree-walking interpreter it replaced.

// fuzzOps is the operator vocabulary of the random graphs/patterns:
// string leaves, a unary op, and two binary ops.
var fuzzOps = struct {
	leaf, un, bin1, bin2 egraph.Op
}{egraph.Op(tensor.OpInput), egraph.Op(tensor.OpRelu), egraph.Op(tensor.OpEwadd), egraph.Op(tensor.OpEwmul)}

// randomEGraph builds a random e-graph: a pool of leaves, ~size random
// operator nodes over existing classes, then a handful of unions (so
// classes hold several nodes and congruence merges fire) and a rebuild.
func randomEGraph(rng *rand.Rand, size int) *egraph.EGraph {
	g := egraph.New(nil)
	var ids []egraph.ClassID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.Add(egraph.StrNode(fuzzOps.leaf, fmt.Sprintf("x%d", i))))
	}
	pick := func() egraph.ClassID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < size; i++ {
		var n egraph.Node
		switch rng.Intn(3) {
		case 0:
			n = egraph.NewNode(fuzzOps.un, pick())
		case 1:
			n = egraph.NewNode(fuzzOps.bin1, pick(), pick())
		default:
			n = egraph.NewNode(fuzzOps.bin2, pick(), pick())
		}
		ids = append(ids, g.Add(n))
	}
	for i := 0; i < 1+size/8; i++ {
		g.Union(pick(), pick())
	}
	g.Rebuild()
	return g
}

// randomPat builds a random pattern of bounded depth over the fuzz
// vocabulary. Variables draw from a pool of three names, so repeated
// variables (non-linear patterns) occur regularly.
func randomPat(rng *rand.Rand, depth int) *Pat {
	vars := []string{"?a", "?b", "?c"}
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			return &Pat{Op: tensor.Op(fuzzOps.leaf), Str: fmt.Sprintf("x%d", rng.Intn(4))}
		}
		return &Pat{Var: vars[rng.Intn(len(vars))]}
	}
	switch rng.Intn(3) {
	case 0:
		return &Pat{Op: tensor.Op(fuzzOps.un), Children: []*Pat{randomPat(rng, depth-1)}}
	case 1:
		return &Pat{Op: tensor.Op(fuzzOps.bin1), Children: []*Pat{randomPat(rng, depth-1), randomPat(rng, depth-1)}}
	default:
		return &Pat{Op: tensor.Op(fuzzOps.bin2), Children: []*Pat{randomPat(rng, depth-1), randomPat(rng, depth-1)}}
	}
}

// assertSameMatches compares two match lists exactly: length, order,
// root classes and full substitutions.
func assertSameMatches(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, reference found %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Class != got[i].Class {
			t.Fatalf("%s: match %d rooted at e%d, reference at e%d", label, i, got[i].Class, want[i].Class)
		}
		if len(want[i].Subst) != len(got[i].Subst) {
			t.Fatalf("%s: match %d binds %d vars, reference %d", label, i, len(got[i].Subst), len(want[i].Subst))
		}
		for v, id := range want[i].Subst {
			if got[i].Subst[v] != id {
				t.Fatalf("%s: match %d binds %s=e%d, reference e%d", label, i, v, got[i].Subst[v], id)
			}
		}
	}
}

// TestDifferentialCompiledVsInterpreter runs the compiled engine and
// the reference interpreter over random graphs and patterns, asserting
// identical match lists (order included, which is stronger than the
// multiset equality the runner needs).
func TestDifferentialCompiledVsInterpreter(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEGraph(rng, 24+rng.Intn(40))
		v := g.Freeze()
		classes := v.Classes()
		for pi := 0; pi < 8; pi++ {
			p := randomPat(rng, 1+rng.Intn(3))
			label := fmt.Sprintf("seed %d pattern %s", seed, p)
			want := ReferenceSearchClasses(v, p, classes)
			assertSameMatches(t, label, want, SearchClasses(v, p, classes))

			// Sharded compiled scans concatenated in shard order must
			// equal the whole scan.
			prog := Compile(p)
			var sharded, whole Matches
			for lo := 0; lo < len(classes); {
				hi := lo + 1 + rng.Intn(7)
				if hi > len(classes) {
					hi = len(classes)
				}
				prog.AppendMatches(&sharded, v, classes[lo:hi])
				lo = hi
			}
			prog.AppendMatches(&whole, v, classes)
			if sharded.Len() != whole.Len() {
				t.Fatalf("%s: sharded scan found %d, whole %d", label, sharded.Len(), whole.Len())
			}
			for i := range whole.Roots {
				if whole.Roots[i] != sharded.Roots[i] {
					t.Fatalf("%s: sharded match %d differs", label, i)
				}
				for k, id := range whole.Bind(i) {
					if id != sharded.Bind(i)[k] {
						t.Fatalf("%s: sharded binding %d/%d differs", label, i, k)
					}
				}
			}

			// Op-index pruning must not change the match list: scanning
			// only the root op's candidate classes equals the full scan.
			if op, ok := prog.RootOp(); ok {
				assertSameMatches(t, label+" (pruned)", want, SearchClasses(v, p, v.ByOp(op)))
			}
		}
	}
}

// TestCompiledMatchesMutableEGraph checks that the compiled engine over
// a frozen view (Search/SearchClass in helpers_test.go) agrees with the
// reference interpreter walking the mutable e-graph itself.
func TestCompiledMatchesMutableEGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomEGraph(rng, 48)
	var classes []*egraph.Class
	g.Classes(func(cls *egraph.Class) { classes = append(classes, cls) })
	for pi := 0; pi < 12; pi++ {
		p := randomPat(rng, 1+rng.Intn(3))
		label := fmt.Sprintf("pattern %s", p)
		want := ReferenceSearchClasses(mutable{g}, p, classes)
		assertSameMatches(t, label, want, Search(g, p))
		for _, cls := range classes {
			cwant := ReferenceSearchClasses(mutable{g}, p, []*egraph.Class{cls})
			assertSameMatches(t, label+" (class)", cwant, SearchClass(g, p, cls.ID))
		}
	}
}

// mutable reads the live e-graph as a Source.
type mutable struct{ *egraph.EGraph }

func (m mutable) Nodes(id egraph.ClassID) []egraph.ClassID { return m.Class(id).Nodes }

// TestViewSurvivesAddAndUnion freezes a view, then adds nodes and
// unions classes as a rule loop does before the next Rebuild. The view
// must still give every class the node list it had at the freeze, and
// AppendMatches the same matches. One union's losing class is
// canonical in the view; the other's kept class has spare capacity in
// its node list, so the union appends in place.
func TestViewSurvivesAddAndUnion(t *testing.T) {
	g := egraph.New(nil)
	var x []egraph.ClassID
	for i := 0; i < 6; i++ {
		x = append(x, g.Add(egraph.StrNode(fuzzOps.leaf, fmt.Sprintf("x%d", i))))
	}
	rx0 := g.Add(egraph.NewNode(fuzzOps.un, x[0]))
	g.Add(egraph.NewNode(fuzzOps.bin1, x[0], x[3]))
	g.Add(egraph.NewNode(fuzzOps.bin2, rx0, x[4]))
	g.Add(egraph.NewNode(fuzzOps.bin1, x[4], x[5]))
	g.Add(egraph.NewNode(fuzzOps.un, x[5]))
	g.Union(x[0], x[1])
	g.Union(x[0], x[2]) // x0's class: three nodes in room for four
	v := g.Freeze()
	if ns := g.Class(x[0]).Nodes; len(ns) == cap(ns) {
		t.Fatal("setup: x0's node list has no spare capacity")
	}
	progs := []*Program{
		Compile(MustParse("(ewadd ?a ?b)")),
		Compile(MustParse("(relu ?a)")),
		Compile(MustParse("(ewmul (relu ?a) ?b)")),
	}
	read := func() (lists [][]egraph.ClassID, found []Matches) {
		for _, cls := range v.Classes() {
			lists = append(lists, slices.Clone(v.Nodes(cls.ID)))
		}
		found = make([]Matches, len(progs))
		for i, pr := range progs {
			pr.AppendMatches(&found[i], v, v.Classes())
		}
		return lists, found
	}
	wantLists, wantFound := read()

	if root, _ := g.Union(x[0], x[3]); root != x[0] {
		t.Fatalf("setup: the union kept e%d, want x0's class", root)
	}
	if root, _ := g.Union(x[4], x[5]); root != x[4] || v.Find(x[5]) != x[5] {
		t.Fatal("setup: x5's class must lose the union and be canonical in the view")
	}
	g.Add(egraph.NewNode(fuzzOps.bin2, x[4], x[0]))
	g.Add(egraph.NewNode(fuzzOps.un, x[4]))

	gotLists, gotFound := read()
	for i, cls := range v.Classes() {
		if !slices.Equal(gotLists[i], wantLists[i]) {
			t.Errorf("class e%d: the view lists %v after Add and Union, %v at the freeze", cls.ID, gotLists[i], wantLists[i])
		}
	}
	for i := range progs {
		if !slices.Equal(gotFound[i].Roots, wantFound[i].Roots) || !slices.Equal(gotFound[i].binds, wantFound[i].binds) {
			t.Errorf("program %d: matches at %v after Add and Union, at %v at the freeze", i, gotFound[i].Roots, wantFound[i].Roots)
		}
	}
}

// TestAppendMatchesAllocatesNothing: a scan into a list that already has
// room — every search after an exploration's first few — allocates
// nothing, matches included.
func TestAppendMatchesAllocatesNothing(t *testing.T) {
	v := randomEGraph(rand.New(rand.NewSource(3)), 200).Freeze()
	prog := Compile(MustParse("(ewadd ?a (relu ?b))"))
	var ms Matches
	prog.AppendMatches(&ms, v, v.Classes())
	if ms.Len() == 0 {
		t.Fatal("pattern matched nothing: the test needs matches to record")
	}
	if n := testing.AllocsPerRun(20, func() {
		ms.Reset()
		prog.AppendMatches(&ms, v, v.Classes())
	}); n != 0 {
		t.Fatalf("AppendMatches into a sized list: %v allocations per run, want 0", n)
	}
}
