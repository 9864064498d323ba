package egraph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refGraph is the naive congruence closure the e-graph is checked
// against: every Add is kept as a term over earlier terms, every Union
// as a pair, and the partition is recomputed from scratch by a fixpoint
// over all term pairs. It shares no code and no idea with EGraph.
type refGraph struct {
	terms  []refTerm
	unions [][2]int
}

type refTerm struct {
	op       Op
	i64      int64
	str      string
	children []int // indices of earlier terms
}

// labels returns the congruence partition: label[k] is the smallest
// term index of k's class.
func (r *refGraph) labels() []int {
	label := make([]int, len(r.terms))
	for k := range label {
		label[k] = k
	}
	merge := func(a, b int) bool {
		a, b = label[a], label[b]
		if a == b {
			return false
		}
		if b < a {
			a, b = b, a
		}
		for k := range label {
			if label[k] == b {
				label[k] = a
			}
		}
		return true
	}
	for _, u := range r.unions {
		merge(u[0], u[1])
	}
	for changed := true; changed; {
		changed = false
		for a := range r.terms {
			for b := a + 1; b < len(r.terms); b++ {
				if label[a] != label[b] && r.congruent(label, a, b) && merge(a, b) {
					changed = true
				}
			}
		}
	}
	return label
}

func (r *refGraph) congruent(label []int, a, b int) bool {
	x, y := r.terms[a], r.terms[b]
	if x.op != y.op || x.i64 != y.i64 || x.str != y.str || len(x.children) != len(y.children) {
		return false
	}
	for i := range x.children {
		if label[x.children[i]] != label[y.children[i]] {
			return false
		}
	}
	return true
}

// refDriver applies one program to an EGraph and to the reference.
type refDriver struct {
	t   *testing.T
	g   *EGraph
	ref refGraph
	ids []ClassID // ids[k] is what Add returned for reference term k
	// stamps[k] is the stamp Add issued for term k, 0 when the term was
	// already present and Add issued none.
	stamps []int64
}

func nodeText(g *EGraph, n Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d/%q", n.Op, n.Int, n.Str)
	for _, c := range n.Children {
		fmt.Fprintf(&b, " e%d", g.Find(c))
	}
	return b.String()
}

// check compares the rebuilt e-graph with the reference: the same
// partition of the added terms, and in every class exactly the distinct
// nodes of its terms, each once, under the earliest stamp of its
// congruence group.
func (d *refDriver) check() {
	t, g := d.t, d.g
	label := d.ref.labels()
	for a := range label {
		for b := a + 1; b < len(label); b++ {
			if (label[a] == label[b]) != (g.Find(d.ids[a]) == g.Find(d.ids[b])) {
				t.Fatalf("terms %d and %d: reference says equal=%v, e-graph says %v",
					a, b, label[a] == label[b], g.Find(d.ids[a]) == g.Find(d.ids[b]))
			}
		}
	}
	want := make(map[ClassID]map[string]bool) // class -> its distinct nodes
	earliest := make(map[string]int64)        // node -> first stamp of its congruence group
	for k, term := range d.ref.terms {
		n := Node{Op: term.op, Int: term.i64, Str: term.str}
		for _, c := range term.children {
			n.Children = append(n.Children, d.ids[c])
		}
		id := g.Find(d.ids[k])
		if want[id] == nil {
			want[id] = make(map[string]bool)
		}
		text := nodeText(g, n)
		want[id][text] = true
		if st := d.stamps[k]; st != 0 && (earliest[text] == 0 || st < earliest[text]) {
			earliest[text] = st
		}
	}
	if g.ClassCount() != len(want) {
		t.Fatalf("ClassCount = %d, reference has %d classes", g.ClassCount(), len(want))
	}
	total := 0
	g.Classes(func(cls *Class) {
		if g.Find(cls.ID) != cls.ID {
			t.Fatalf("class e%d: not canonical", cls.ID)
		}
		got := make(map[string]bool)
		for _, nid := range cls.Nodes {
			n := *g.Node(nid)
			text := nodeText(g, n)
			if g.flags[nid]&flagDead != 0 {
				t.Fatalf("class e%d lists %s at dead node %d", cls.ID, text, nid)
			}
			for _, c := range n.Children {
				if g.Find(c) != c {
					t.Fatalf("class e%d holds %s with stale child e%d", cls.ID, text, c)
				}
				// The next repair of c reaches this entry only through a
				// live node in c's parent list.
				listed := false
				for _, p := range g.classes[c].parents {
					listed = listed || g.flags[p]&flagDead == 0 && g.nodes[p].Equal(n)
				}
				if !listed {
					t.Fatalf("class e%d holds %s, which no live parent of e%d is", cls.ID, text, c)
				}
			}
			if got[text] {
				t.Fatalf("class e%d holds %s twice", cls.ID, text)
			}
			got[text] = true
			if !want[cls.ID][text] {
				t.Fatalf("class e%d holds %s, which the reference does not put there", cls.ID, text)
			}
			if g.NodeStamp(nid) != earliest[text] {
				t.Fatalf("class e%d node %s has stamp %d, want the group's earliest %d", cls.ID, text, g.NodeStamp(nid), earliest[text])
			}
			if id, ok := g.Lookup(n); !ok || id != cls.ID {
				t.Fatalf("Lookup(%s) = e%d, %v; the node is in e%d", text, id, ok, cls.ID)
			}
		}
		if len(got) != len(want[cls.ID]) {
			t.Fatalf("class e%d holds %d nodes, reference %d", cls.ID, len(got), len(want[cls.ID]))
		}
		total += len(got)
	})
	if g.NodeCount() != total {
		t.Fatalf("NodeCount = %d, classes hold %d", g.NodeCount(), total)
	}
}

// checkView freezes and compares the view with the e-graph just
// checked: Find, Nodes and the op index.
func (d *refDriver) checkView() {
	t, g := d.t, d.g
	v := g.Freeze()
	d.check()
	for i := 0; i < g.uf.size(); i++ {
		if id := ClassID(i); v.Find(id) != g.Find(id) || !slices.Equal(v.Nodes(id), g.Class(id).Nodes) {
			t.Fatalf("view disagrees with the e-graph on e%d", id)
		}
	}
	assertOpIndex(t, v)
}

// add gives term to the e-graph and to the reference, and returns its
// reference index.
func (d *refDriver) add(term refTerm) int {
	n := Node{Op: term.op, Int: term.i64, Str: term.str}
	for _, c := range term.children {
		n.Children = append(n.Children, d.ids[c])
	}
	before := d.g.Stamp()
	d.ref.terms = append(d.ref.terms, term)
	d.ids = append(d.ids, d.g.Add(n))
	if st := d.g.Stamp(); st > before {
		d.stamps = append(d.stamps, st)
	} else {
		d.stamps = append(d.stamps, 0)
	}
	return len(d.ids) - 1
}

// run interprets prog: a byte picks the operation, the following bytes
// its operands. Four leaf terms exist before the first byte is read.
func (d *refDriver) run(prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for i := 0; i < 4; i++ {
		d.add(refTerm{op: 1, i64: int64(i)})
	}
	for len(prog) > 0 && len(d.ref.terms) < 120 {
		pick := func() int { return next() % len(d.ref.terms) }
		switch op := next() % 10; op {
		case 0:
			d.add(refTerm{op: 1, str: fmt.Sprintf("s%d", next()%3)})
		case 1, 2:
			d.add(refTerm{op: 2, children: []int{pick()}})
		case 3, 4:
			d.add(refTerm{op: Op(3 + next()%2), children: []int{pick(), pick()}})
		case 5, 6, 7:
			a, b := pick(), pick()
			d.ref.unions = append(d.ref.unions, [2]int{a, b})
			d.g.Union(d.ids[a], d.ids[b])
		case 8:
			d.g.Rebuild()
			d.check()
		case 9:
			d.checkView()
		}
	}
	d.checkView()
}

// TestDeadParentIsNotRevived walks one node through three Rebuilds. f(a,b)
// dies congruent to f(a2,b) in the first and stays in b's parent list;
// the second merges b, and must not put the dead node back in the memo
// in its twin's place: the twin is the one a's class still lists, so the
// third, which merges a's class, could then neither canonicalize the
// class's entry nor see it congruent to the new f(a3,b2).
func TestDeadParentIsNotRevived(t *testing.T) {
	d := &refDriver{t: t, g: New(nil)}
	leaf := func(i int64) int { return d.add(refTerm{op: 1, i64: i}) }
	f := func(x, y int) int { return d.add(refTerm{op: 3, children: []int{x, y}}) }
	union := func(x, y int) {
		d.ref.unions = append(d.ref.unions, [2]int{x, y})
		d.g.Union(d.ids[x], d.ids[y])
	}
	a, a2, a3, b, b2 := leaf(0), leaf(1), leaf(2), leaf(3), leaf(4)
	f(a, b)
	f(a2, b)
	union(a3, leaf(5)) // a3's rank rises, so it is the root of the last union
	union(a2, a)
	d.checkView()
	union(b2, b)
	d.checkView()
	f(a3, b2)
	union(a3, a2)
	d.checkView()
}

// TestAgainstReference drives seeded random Add/Union/Rebuild/Freeze
// programs through the e-graph and the naive reference.
func TestAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		prog := make([]byte, 40+seed%200)
		rand.New(rand.NewSource(seed)).Read(prog)
		d := &refDriver{t: t, g: New(nil)}
		d.run(prog)
	}
}

// FuzzAgainstReference lets the fuzzer write the program. The corpus
// under testdata/fuzz holds programs that chain-merge several classes
// inside one repair.
func FuzzAgainstReference(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 3, 0, 2, 3, 5, 1, 2, 5, 4, 5, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		d := &refDriver{t: t, g: New(nil)}
		d.run(prog)
	})
}
