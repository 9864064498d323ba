package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// cyclicEGraph hand-builds the Figure 3 situation: two classes that
// reference each other through e-nodes added at known stamps.
func cyclicEGraph(t *testing.T) (*egraph.EGraph, egraph.ClassID, egraph.ClassID) {
	t.Helper()
	g := egraph.New(nil)
	// Base tensors.
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))
	y := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "y@4 4"))
	a := g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), x))  // class A
	bb := g.Add(egraph.NewNode(egraph.Op(tensor.OpTanh), y)) // class B
	// Now add a node in A referencing B, and a node in B referencing A,
	// via unions (simulating rewrites whose targets point across).
	na := g.Add(egraph.NewNode(egraph.Op(tensor.OpSigmoid), bb)) // sigmoid(B)
	g.Union(a, na)
	nb := g.Add(egraph.NewNode(egraph.Op(tensor.OpSigmoid), a)) // sigmoid(A)
	g.Union(bb, nb)
	g.Rebuild()
	return g, g.Find(a), g.Find(bb)
}

func TestFindCyclesDetectsFigure3(t *testing.T) {
	g, _, _ := cyclicEGraph(t)
	cycles := findCycles(g, &FilterSet{})
	if len(cycles) == 0 {
		t.Fatal("cycle not detected")
	}
}

func TestFilterCyclesBreaksAllCycles(t *testing.T) {
	g, _, _ := cyclicEGraph(t)
	filtered := &FilterSet{}
	n := FilterCycles(g, filtered, nil)
	if n == 0 {
		t.Fatal("nothing filtered")
	}
	if !IsAcyclic(g, filtered) {
		t.Fatal("still cyclic after FilterCycles")
	}
}

// TestFilterCyclesHonorsDone is the regression test for the ctxflow
// finding on FilterCycles: the detect-and-resolve loop used to accept
// no cancellation input at all. A pre-fired done channel must stop it
// before the first round (returning 0 with the graph still cyclic),
// and a nil done must run it to completion.
func TestFilterCyclesHonorsDone(t *testing.T) {
	g, _, _ := cyclicEGraph(t)
	filtered := &FilterSet{}
	done := make(chan struct{})
	close(done)
	if n := FilterCycles(g, filtered, done); n != 0 {
		t.Fatalf("canceled FilterCycles filtered %d nodes, want 0", n)
	}
	if IsAcyclic(g, filtered) {
		t.Fatal("canceled FilterCycles should leave the cycle in place")
	}
	if n := FilterCycles(g, filtered, nil); n == 0 {
		t.Fatal("uncancelable pass filtered nothing")
	}
	if !IsAcyclic(g, filtered) {
		t.Fatal("still cyclic after uncancelable FilterCycles")
	}
}

func TestFilterCyclesRemovesLastAddedNode(t *testing.T) {
	g, a, b := cyclicEGraph(t)
	filtered := &FilterSet{}
	FilterCycles(g, filtered, nil)
	// The cycle consists of sigmoid(B) in A (earlier) and sigmoid(A) in
	// B (later). Algorithm 2 filters the most recently added node.
	var maxStamp int64
	for _, id := range []egraph.ClassID{a, b} {
		cls := g.Class(id)
		for _, n := range cls.Nodes {
			maxStamp = max(maxStamp, g.NodeStamp(n))
		}
	}
	if !filtered.Has(maxStamp) {
		t.Fatalf("expected last-added node (stamp %d) filtered, got %v", maxStamp, filtered)
	}
	if n := filteredCount(g, filtered); n != 1 {
		t.Fatalf("filtered %d nodes, want 1", n)
	}
}

// TestFilterSet checks the bit table against the stamps put on it, across
// word boundaries and past the end of what it has grown to, and that
// Has, which every cycle walk calls per node, allocates nothing.
func TestFilterSet(t *testing.T) {
	var f FilterSet
	on := map[int64]bool{1: true, 63: true, 64: true, 200: true}
	for st := range on {
		f.Add(st)
	}
	for st := int64(0); st < 300; st++ {
		if f.Has(st) != on[st] {
			t.Fatalf("Has(%d) = %v, want %v", st, f.Has(st), on[st])
		}
	}
	var sink bool
	if n := testing.AllocsPerRun(100, func() { sink = f.Has(200) || f.Has(5000) }); n != 0 {
		t.Errorf("FilterSet.Has: %v allocations per run, want 0", n)
	}
	_ = sink
}

// filteredCount returns how many of g's stamps the filter list holds.
func filteredCount(g *egraph.EGraph, f *FilterSet) int {
	n := 0
	for st := int64(1); st <= g.Stamp(); st++ {
		if f.Has(st) {
			n++
		}
	}
	return n
}

func TestIsAcyclicOnAcyclicGraph(t *testing.T) {
	g := egraph.New(nil)
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))
	g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), x))
	if !IsAcyclic(g, &FilterSet{}) {
		t.Fatal("acyclic graph reported cyclic")
	}
}

func TestDescendantsSkipFilteredNodes(t *testing.T) {
	g, a, b := cyclicEGraph(t)
	filtered := &FilterSet{}
	FilterCycles(g, filtered, nil)
	desc := orderOf(g, filtered)
	// After filtering, at most one of A-reaches-B / B-reaches-A remains.
	ab := desc.reaches(g.Find(a), g.Find(b))
	ba := desc.reaches(g.Find(b), g.Find(a))
	if ab && ba {
		t.Fatal("classes still mutually reachable after filtering")
	}
}

func TestWillCreateCycleSelfReference(t *testing.T) {
	g := egraph.New(nil)
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))
	r := g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), x))
	desc := orderOf(g, &FilterSet{})
	// A rewrite binding ?t to the matched class itself must be caught.
	p := mustPat(t, "(relu ?t)")
	subst := substOf("?t", r)
	if !willCreateCycle(g, desc, p, subst, r) {
		t.Fatal("self-referential target not flagged")
	}
	// Binding ?t to a leaf below is fine.
	subst = substOf("?t", x)
	if willCreateCycle(g, desc, p, subst, r) {
		t.Fatal("downward reference wrongly flagged")
	}
	// But binding ?t to an ancestor is a cycle.
	up := g.Add(egraph.NewNode(egraph.Op(tensor.OpTanh), r))
	desc = orderOf(g, &FilterSet{})
	subst = substOf("?t", up)
	if !willCreateCycle(g, desc, p, subst, x) {
		t.Fatal("ancestor reference not flagged")
	}
}

// The functions below spell the cycleFilter methods the way these
// tests call them: standalone, on scratch of their own, with the
// rewrite's bindings as a substitution by variable name.

func FilterCycles(g *egraph.EGraph, filtered *FilterSet, done <-chan struct{}) int {
	return new(cycleFilter).filterCycles(g, filtered, done)
}

// order is a walk's postorder queried on the live e-graph it numbered,
// as FilterVanilla queries it.
type order struct {
	f        *cycleFilter
	g        *egraph.EGraph
	filtered *FilterSet
}

func orderOf(g *egraph.EGraph, filtered *FilterSet) order {
	f := new(cycleFilter)
	f.findCycles(g, filtered)
	return order{f, g, filtered}
}

func (o order) reaches(from, to egraph.ClassID) bool {
	return o.f.reaches(liveGraph{o.g}, o.g, o.filtered, from, to)
}

func findCycles(g *egraph.EGraph, filtered *FilterSet) [][]int64 {
	return new(cycleFilter).findCycles(g, filtered)
}

func willCreateCycle(g *egraph.EGraph, desc order, target *pattern.Pat,
	subst pattern.Subst, matched egraph.ClassID) bool {
	vars := target.Vars()
	bind := make([]egraph.ClassID, len(vars))
	for i, v := range vars {
		bind[i] = subst[v]
	}
	return desc.f.willCreateCycle(g, liveGraph{g}, desc.filtered, pattern.CompileTarget(target, vars), bind, matched)
}

func mustPat(t *testing.T, src string) *pattern.Pat {
	t.Helper()
	p, err := pattern.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func substOf(v string, id egraph.ClassID) pattern.Subst {
	return pattern.Subst{v: id}
}

// TestReachesAgainstReference checks the order query on random
// e-graphs against a naive reference: reachability through unfiltered
// nodes in the class graph minus the back edges of the same
// ascending-id DFS, for every pair of classes. Half the e-graphs keep
// the residual cycles their unions made, as exploration without cycle
// filtering leaves them; the other half have had them filtered, and a
// random tenth of their nodes filtered besides. Queries read the view
// frozen at the walk while new nodes and unions change the e-graph, as
// FilterEfficient's do, and a class created after the walk reaches
// nothing and is reached by nothing.
func TestReachesAgainstReference(t *testing.T) {
	pairs, reached, cyclic := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := egraph.New(nil)
		var ids []egraph.ClassID
		for i := 0; i < 8; i++ {
			ids = append(ids, g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), fmt.Sprintf("x%d", i))))
		}
		for i := 0; i < 6; i++ {
			mutate(rng, g, &ids)
		}
		filtered := &FilterSet{}
		if seed%2 == 1 {
			FilterCycles(g, filtered, nil)
			for st := int64(1); st <= g.Stamp(); st++ {
				if rng.Intn(10) == 0 {
					filtered.Add(st)
				}
			}
		}
		var f cycleFilter
		if len(f.findCycles(g, filtered)) > 0 {
			cyclic++
		}
		want := naiveOrderOf(g, filtered)
		view := g.Freeze()
		var classes []egraph.ClassID
		g.Classes(func(cls *egraph.Class) { classes = append(classes, cls.ID) })

		// Change the e-graph as rules applying would, without a rebuild.
		leaf := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "fresh"))
		fresh := g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), classes[len(classes)-1], leaf))
		for i := 0; i < 3; i++ {
			g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), classes[rng.Intn(len(classes))], fresh))
			g.Union(classes[rng.Intn(len(classes))], g.Add(egraph.NewNode(egraph.Op(tensor.OpTanh), fresh)))
		}
		for _, a := range classes {
			for _, b := range classes {
				got := f.reaches(view, g, filtered, a, b)
				if got != want.reaches(a, b) {
					t.Fatalf("seed %d: reaches(e%d, e%d) = %v, reference %v", seed, a, b, got, !got)
				}
				pairs++
				if got {
					reached++
				}
			}
			if f.reaches(view, g, filtered, fresh, a) || f.reaches(view, g, filtered, a, fresh) {
				t.Fatalf("seed %d: class e%d created after the walk is related to e%d", seed, fresh, a)
			}
		}
	}
	if reached == 0 || reached == pairs || cyclic == 0 {
		t.Fatalf("%d of %d pairs reach, %d e-graphs cyclic: the cases are not exercised", reached, pairs, cyclic)
	}
}

// naiveOrder is the reference for reaches: per class id, the class
// graph's edges through unfiltered nodes, with the back edges of a plain
// recursive DFS over the canonical classes in ascending id order marked.
type naiveOrder [][]naiveEdge

type naiveEdge struct {
	to   egraph.ClassID
	back bool
}

func naiveOrderOf(g *egraph.EGraph, filtered *FilterSet) naiveOrder {
	o := make(naiveOrder, g.Stamp())
	g.Classes(func(cls *egraph.Class) {
		for _, n := range cls.Nodes {
			if !filtered.Has(g.NodeStamp(n)) {
				for _, ch := range g.Node(n).Children {
					o[cls.ID] = append(o[cls.ID], naiveEdge{to: g.Find(ch)})
				}
			}
		}
	})
	state := make([]uint8, len(o)) // 1 on the stack, 2 done
	var dfs func(id egraph.ClassID)
	dfs = func(id egraph.ClassID) {
		state[id] = 1
		for i := range o[id] {
			switch e := &o[id][i]; state[e.to] {
			case 1:
				e.back = true
			case 0:
				dfs(e.to)
			}
		}
		state[id] = 2
	}
	g.Classes(func(cls *egraph.Class) {
		if state[cls.ID] == 0 {
			dfs(cls.ID)
		}
	})
	return o
}

// reaches reports whether class to is strictly below class from along
// edges that are not back edges. A class the walk did not see reaches
// nothing and is reached by nothing.
func (o naiveOrder) reaches(from, to egraph.ClassID) bool {
	if int(from) >= len(o) || int(to) >= len(o) {
		return false
	}
	seen := make([]bool, len(o))
	queue := []egraph.ClassID{from}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range o[id] {
			if e.back || seen[e.to] {
				continue
			}
			if e.to == to {
				return true
			}
			seen[e.to] = true
			queue = append(queue, e.to)
		}
	}
	return false
}

// TestReachesAllocatesNothing checks that a query, on scratch a walk
// has sized and an earlier query has grown, allocates nothing, whether
// it answers from the order alone or searches.
func TestReachesAllocatesNothing(t *testing.T) {
	g, ids := orderDAG(500)
	view := g.Freeze()
	var f cycleFilter
	if cycles := f.findCycles(g, &FilterSet{}); len(cycles) > 0 {
		t.Fatalf("orderDAG has %d cycles", len(cycles))
	}
	top, bottom := ids[len(ids)-1], ids[0]
	f.reaches(view, g, &FilterSet{}, top, bottom)
	var sink bool
	if n := testing.AllocsPerRun(100, func() {
		sink = f.reaches(view, g, &FilterSet{}, top, bottom) || f.reaches(view, g, &FilterSet{}, bottom, top)
	}); n != 0 {
		t.Errorf("reaches: %v allocations per run, want 0", n)
	}
	_ = sink
}

// orderDAG builds a DAG of n classes holding two nodes each, both over
// classes built before it; ids[i] is the i-th class. A node the e-graph
// already holds is drawn again: its class is an older one, and a union
// with it could close a cycle.
func orderDAG(n int) (*egraph.EGraph, []egraph.ClassID) {
	rng := rand.New(rand.NewSource(1))
	g := egraph.New(nil)
	ids := []egraph.ClassID{g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))}
	fresh := func(op tensor.Op) egraph.ClassID {
		for {
			before := g.NodeCount()
			id := g.Add(egraph.NewNode(egraph.Op(op), ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
			if g.NodeCount() > before {
				return id
			}
		}
	}
	for len(ids) < n {
		id := fresh(tensor.OpEwadd)
		g.Union(id, fresh(tensor.OpEwmul))
		ids = append(ids, id)
	}
	g.Rebuild()
	for i, id := range ids {
		ids[i] = g.Find(id)
	}
	return g, ids
}

// BenchmarkCycleOrder times what FilterEfficient does per iteration on
// a 4000-class DAG whose classes hold two nodes each, on one reused
// cycleFilter: the walk that numbers the classes, then a fixed batch of
// 1000 pre-filter queries between random classes through the frozen
// view.
func BenchmarkCycleOrder(b *testing.B) {
	g, ids := orderDAG(4000)
	view := g.Freeze()
	rng := rand.New(rand.NewSource(2))
	queries := make([][2]egraph.ClassID, 1000)
	for i := range queries {
		queries[i] = [2]egraph.ClassID{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	var f cycleFilter
	filtered := &FilterSet{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.findCycles(g, filtered)
		for _, q := range queries {
			f.reaches(view, g, filtered, q[0], q[1])
		}
	}
}
