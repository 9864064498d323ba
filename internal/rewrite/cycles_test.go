package rewrite

import (
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
	desc := computeDescendants(g, filtered)
	// After filtering, at most one of A-reaches-B / B-reaches-A remains.
	ab := desc.reaches(g.Find(a), g.Find(b))
	ba := desc.reaches(g.Find(b), g.Find(a))
	if ab && ba {
		t.Fatal("descendants still mutually reachable after filtering")
	}
}

func TestWillCreateCycleSelfReference(t *testing.T) {
	g := egraph.New(nil)
	x := g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))
	r := g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), x))
	desc := computeDescendants(g, &FilterSet{})
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
	desc = computeDescendants(g, &FilterSet{})
	subst = substOf("?t", up)
	if !willCreateCycle(g, desc, p, subst, x) {
		t.Fatal("ancestor reference not flagged")
	}
}

// The four functions below spell the cycleFilter methods the way these
// tests call them: standalone, on scratch of their own, with the
// rewrite's bindings as a substitution by variable name.

func FilterCycles(g *egraph.EGraph, filtered *FilterSet, done <-chan struct{}) int {
	return new(cycleFilter).filterCycles(g, filtered, done)
}

func computeDescendants(g *egraph.EGraph, filtered *FilterSet) *cycleFilter {
	f := new(cycleFilter)
	f.computeDescendants(g, filtered)
	return f
}

func findCycles(g *egraph.EGraph, filtered *FilterSet) [][]int64 {
	return new(cycleFilter).findCycles(g, filtered)
}

func willCreateCycle(g *egraph.EGraph, desc *cycleFilter, target *pattern.Pat,
	subst pattern.Subst, matched egraph.ClassID) bool {
	vars := target.Vars()
	bind := make([]egraph.ClassID, len(vars))
	for i, v := range vars {
		bind[i] = subst[v]
	}
	return desc.willCreateCycle(g, pattern.CompileTarget(target, vars), bind, matched)
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

// BenchmarkDescendants times the GETDESCENDANTS pass on a 4000-class
// DAG whose classes hold two nodes each, on one reused cycleFilter —
// the way an exploration run calls it once per iteration.
func BenchmarkDescendants(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := egraph.New(nil)
	ids := []egraph.ClassID{g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), "x@4 4"))}
	for len(ids) < 4000 {
		below := func() egraph.ClassID { return ids[rng.Intn(len(ids))] }
		id := g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), below(), below()))
		g.Union(id, g.Add(egraph.NewNode(egraph.Op(tensor.OpEwmul), below(), below())))
		ids = append(ids, id)
	}
	g.Rebuild()
	var f cycleFilter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.computeDescendants(g, &FilterSet{})
	}
}
