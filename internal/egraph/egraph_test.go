package egraph

import (
	"testing"
	"testing/quick"
)

// A tiny arithmetic language for tests.
const (
	opNum Op = iota // Int payload
	opVarX
	opVarY
	opAdd
	opMul
	opShl
	opDiv
)

func TestAddHashConsing(t *testing.T) {
	g := New(nil)
	x1 := g.Add(Leaf(opVarX))
	x2 := g.Add(Leaf(opVarX))
	if x1 != x2 {
		t.Fatalf("same leaf added twice got distinct classes %d, %d", x1, x2)
	}
	a := g.Add(NewNode(opAdd, x1, x2))
	b := g.Add(NewNode(opAdd, x1, x2))
	if a != b {
		t.Fatalf("identical nodes not hash-consed: %d vs %d", a, b)
	}
	if g.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d, want 2", g.NodeCount())
	}
	if g.ClassCount() != 2 {
		t.Fatalf("ClassCount = %d, want 2", g.ClassCount())
	}
}

func TestIntAndStrPayloadsDistinguishNodes(t *testing.T) {
	g := New(nil)
	one := g.Add(IntNode(opNum, 1))
	two := g.Add(IntNode(opNum, 2))
	if one == two {
		t.Fatal("distinct int literals merged")
	}
	s1 := g.Add(StrNode(opNum, "a b"))
	s2 := g.Add(StrNode(opNum, "ab"))
	if s1 == s2 {
		t.Fatal("distinct string literals merged")
	}
}

func TestUnionFindBasics(t *testing.T) {
	var u unionFind
	ids := make([]ClassID, 10)
	for i := range ids {
		ids[i] = u.makeSet()
	}
	u.union(ids[0], ids[1])
	u.union(ids[1], ids[2])
	if u.find(ids[0]) != u.find(ids[2]) {
		t.Fatal("transitive union broken")
	}
	if u.find(ids[3]) == u.find(ids[0]) {
		t.Fatal("unrelated sets merged")
	}
}

func TestUnionMergesClasses(t *testing.T) {
	g := New(nil)
	x := g.Add(Leaf(opVarX))
	y := g.Add(Leaf(opVarY))
	root, changed := g.Union(x, y)
	if !changed {
		t.Fatal("union of distinct classes reported no change")
	}
	g.Rebuild()
	if g.Find(x) != g.Find(y) || g.Find(x) != root {
		t.Fatal("union did not merge classes")
	}
	if len(g.Class(x).Nodes) != 2 {
		t.Fatalf("merged class has %d nodes, want 2", len(g.Class(x).Nodes))
	}
	if _, again := g.Union(x, y); again {
		t.Fatal("re-union reported a change")
	}
}

func TestCongruenceClosure(t *testing.T) {
	// f(x) and f(y) must merge once x = y.
	g := New(nil)
	x := g.Add(Leaf(opVarX))
	y := g.Add(Leaf(opVarY))
	fx := g.Add(NewNode(opShl, x))
	fy := g.Add(NewNode(opShl, y))
	if g.Find(fx) == g.Find(fy) {
		t.Fatal("f(x) = f(y) before union")
	}
	g.Union(x, y)
	g.Rebuild()
	if g.Find(fx) != g.Find(fy) {
		t.Fatal("congruence not restored: f(x) != f(y) after x = y")
	}
}

func TestCongruenceClosureCascades(t *testing.T) {
	// g(f(x)) and g(f(y)) must merge transitively.
	g := New(nil)
	x := g.Add(Leaf(opVarX))
	y := g.Add(Leaf(opVarY))
	fx := g.Add(NewNode(opShl, x))
	fy := g.Add(NewNode(opShl, y))
	gfx := g.Add(NewNode(opDiv, fx))
	gfy := g.Add(NewNode(opDiv, fy))
	g.Union(x, y)
	g.Rebuild()
	if g.Find(gfx) != g.Find(gfy) {
		t.Fatal("two-level congruence not restored")
	}
}

func TestRebuildDeduplicatesNodes(t *testing.T) {
	g := New(nil)
	x := g.Add(Leaf(opVarX))
	y := g.Add(Leaf(opVarY))
	ax := g.Add(NewNode(opAdd, x, x))
	ay := g.Add(NewNode(opAdd, y, y))
	g.Union(ax, ay) // same class now holds add(x,x) and add(y,y)
	g.Union(x, y)
	g.Rebuild()
	cls := g.Class(ax)
	if len(cls.Nodes) != 1 {
		t.Fatalf("class holds %d nodes after dedupe, want 1: %v", len(cls.Nodes), cls.Nodes)
	}
}

func TestPaperExample(t *testing.T) {
	// Section 2: f(a,b) -> c and a -> b starting from f(b,a) proves
	// f(b,a) = c. Here f = opAdd, constants via opNum payloads.
	g := New(nil)
	a := g.Add(IntNode(opNum, 'a'))
	b := g.Add(IntNode(opNum, 'b'))
	fba := g.Add(NewNode(opAdd, b, a))
	// a -> b
	g.Union(a, b)
	g.Rebuild()
	// Now f(a,b) is represented in fba's class.
	fab := g.Add(NewNode(opAdd, a, b))
	if g.Find(fab) != g.Find(fba) {
		t.Fatal("f(a,b) and f(b,a) not merged after a = b")
	}
	c := g.Add(IntNode(opNum, 'c'))
	g.Union(fab, c)
	g.Rebuild()
	if g.Find(fba) != g.Find(c) {
		t.Fatal("f(b,a) != c after applying both rewrites")
	}
}

// Expr is an expression tree for AddExprTree: the node's own Children
// are ignored and taken from the sub-expressions.
type Expr struct {
	Node     Node
	Children []*Expr
}

// AddExprTree recursively adds the expression and returns its root class.
func (g *EGraph) AddExprTree(e *Expr) ClassID {
	n := e.Node
	n.Children = nil
	for _, c := range e.Children {
		n.Children = append(n.Children, g.AddExprTree(c))
	}
	return g.Add(n)
}

func TestAddExprTree(t *testing.T) {
	g := New(nil)
	e := &Expr{Node: NewNode(opMul), Children: []*Expr{
		{Node: Leaf(opVarX)},
		{Node: IntNode(opNum, 2)},
	}}
	id := g.AddExprTree(e)
	cls := g.Class(id)
	if len(cls.Nodes) != 1 || g.Node(cls.Nodes[0]).Op != opMul {
		t.Fatalf("unexpected root class %v", cls.Nodes)
	}
}

type countAnalysis struct{}

// Make counts the minimal term size; Merge takes the min.
func (countAnalysis) Make(g *EGraph, n Node) any {
	size := 1
	for _, c := range n.Children {
		size += g.Class(c).Data.(int)
	}
	return size
}

func (countAnalysis) Merge(a, b any) (any, bool) {
	ai, bi := a.(int), b.(int)
	if bi < ai {
		return bi, true
	}
	return ai, false
}

func TestAnalysisMakeAndMerge(t *testing.T) {
	g := New(countAnalysis{})
	x := g.Add(Leaf(opVarX))
	two := g.Add(IntNode(opNum, 2))
	mul := g.Add(NewNode(opMul, x, two))
	if got := g.Class(mul).Data.(int); got != 3 {
		t.Fatalf("size(mul) = %d, want 3", got)
	}
	// x*2 = x<<1 : same size; then union with plain x => size 1 propagates.
	shl := g.Add(NewNode(opShl, x, g.Add(IntNode(opNum, 1))))
	g.Union(mul, shl)
	g.Rebuild()
	if got := g.Class(mul).Data.(int); got != 3 {
		t.Fatalf("size after equal-size union = %d, want 3", got)
	}
	g.Union(mul, x)
	g.Rebuild()
	if got := g.Class(mul).Data.(int); got != 1 {
		t.Fatalf("size after union with leaf = %d, want 1", got)
	}
}

func TestAnalysisPropagatesUpward(t *testing.T) {
	g := New(countAnalysis{})
	x := g.Add(Leaf(opVarX))
	y := g.Add(Leaf(opVarY))
	inner := g.Add(NewNode(opAdd, x, y))  // size 3
	outer := g.Add(NewNode(opShl, inner)) // size 4
	g.Union(inner, x)                     // inner size becomes 1
	g.Rebuild()
	if got := g.Class(outer).Data.(int); got != 2 {
		t.Fatalf("outer size = %d, want 2 after child shrank", got)
	}
}

func TestLookup(t *testing.T) {
	g := New(nil)
	x := g.Add(Leaf(opVarX))
	n := NewNode(opShl, x)
	if _, ok := g.Lookup(n); ok {
		t.Fatal("Lookup found node before Add")
	}
	id := g.Add(n)
	got, ok := g.Lookup(n)
	if !ok || got != id {
		t.Fatalf("Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestStampsMonotone(t *testing.T) {
	g := New(nil)
	x := g.Add(Leaf(opVarX))
	y := g.Add(Leaf(opVarY))
	a := g.Add(NewNode(opAdd, x, y))
	cls := g.Class(a)
	if st := g.NodeStamp(cls.Nodes[0]); st != 3 {
		t.Fatalf("third insertion stamp = %d, want 3", st)
	}
	if g.Stamp() != 3 {
		t.Fatalf("Stamp() = %d, want 3", g.Stamp())
	}
}

func TestNodeKeyInjective(t *testing.T) {
	// Property: the memo tells two nodes apart exactly when their
	// (op,int,str,children) tuples differ.
	f := func(op1, op2 uint16, i1, i2 int64, s1, s2 string, c1, c2 []int32) bool {
		mk := func(op uint16, i int64, s string, cs []int32) Node {
			n := Node{Op: Op(op), Int: i, Str: s}
			for _, c := range cs {
				n.Children = append(n.Children, ClassID(uint32(c)%8))
			}
			return n
		}
		g := New(nil)
		for i := 0; i < 8; i++ {
			g.Add(IntNode(opNum, int64(i)))
		}
		a, b := mk(op1, i1, s1, c1), mk(op2, i2, s2, c2)
		ida, idb := g.Add(a), g.Add(b)
		if a.Equal(b) {
			return ida == idb && a.hash() == b.hash()
		}
		return ida != idb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFindIdempotentProperty(t *testing.T) {
	// Property: find is idempotent and union is commutative in effect.
	f := func(pairs []uint8) bool {
		var u1, u2 unionFind
		const n = 16
		for i := 0; i < n; i++ {
			u1.makeSet()
			u2.makeSet()
		}
		for _, p := range pairs {
			a, b := ClassID(p%n), ClassID((p/n)%n)
			u1.union(a, b)
			u2.union(b, a)
		}
		for i := ClassID(0); i < n; i++ {
			if u1.find(u1.find(i)) != u1.find(i) {
				return false
			}
			for j := ClassID(0); j < n; j++ {
				if (u1.find(i) == u1.find(j)) != (u2.find(i) == u2.find(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
