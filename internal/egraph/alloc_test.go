package egraph

import (
	"testing"
)

// chainGraph builds f(f(...f(x)...)) n deep plus g(x, level) at every
// level, and returns the e-graph with the class of each f level.
func chainGraph(n int) (*EGraph, []ClassID) {
	g := New(nil)
	ids := []ClassID{g.Add(StrNode(1, "x"))}
	for i := 0; i < n; i++ {
		top := g.Add(NewNode(2, ids[len(ids)-1]))
		g.Add(NewNode(3, ids[0], top))
		ids = append(ids, top)
	}
	return g, ids
}

// TestHotPathsAllocateNothing pins what the exploration loop leans on:
// asking the e-graph for a node it already has, and reading a node or a
// frozen view, allocate nothing.
func TestHotPathsAllocateNothing(t *testing.T) {
	g, ids := chainGraph(50)
	children := []ClassID{ids[0], ids[20]}
	present := Node{Op: 3, Children: children}
	leaf := StrNode(1, "x")
	v := g.Freeze()
	var sink ClassID
	var nodes []ClassID
	var node *Node
	var stamp int64
	for name, f := range map[string]func(){
		"Add of a present node":    func() { sink = g.Add(present) },
		"Add of a present leaf":    func() { sink = g.Add(leaf) },
		"Lookup of a present node": func() { sink, _ = g.Lookup(present) },
		"Lookup of an absent node": func() { sink, _ = g.Lookup(Node{Op: 9, Children: children}) },
		"EGraph.Node":              func() { node = g.Node(ids[30]) },
		"EGraph.NodeStamp":         func() { stamp = g.NodeStamp(ids[30]) },
		"View.Find":                func() { sink = v.Find(ids[30]) },
		"View.Nodes":               func() { nodes = v.Nodes(ids[30]) },
		"View.Node":                func() { node = v.Node(ids[30]) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
	_, _, _, _ = sink, nodes, node, stamp
}

var benchSink ClassID

func BenchmarkAddHit(b *testing.B) {
	g, ids := chainGraph(1000)
	n := Node{Op: 3, Children: []ClassID{ids[0], ids[500]}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = g.Add(n)
	}
}

func BenchmarkAddMiss(b *testing.B) {
	g, ids := chainGraph(1000)
	children := []ClassID{ids[0], ids[500]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = g.Add(Node{Op: 4, Int: int64(i), Children: children})
	}
}

// BenchmarkUnionRebuild merges the two halves of a 2000-deep chain level
// by level, bottom up: every union makes the next level's parents
// congruent, so one Rebuild cascades through a thousand repairs.
func BenchmarkUnionRebuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, ids := chainGraph(2000)
		b.StartTimer()
		g.Union(ids[0], ids[1000])
		g.Rebuild()
		if g.Find(ids[1000]) != g.Find(ids[2000]) {
			b.Fatal("chain did not collapse")
		}
	}
}

func BenchmarkFreeze(b *testing.B) {
	g, _ := chainGraph(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Freeze().ClassCount() == 0 {
			b.Fatal("empty view")
		}
	}
}
