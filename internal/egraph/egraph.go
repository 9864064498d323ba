// Package egraph implements e-graphs: a data structure that compactly
// represents an equivalence relation over many terms, following egg
// (Willsey et al. 2020). It provides hash-consed e-node insertion,
// union with deferred congruence-closure rebuilding, and e-class
// analyses. This is the substrate TENSAT's exploration phase runs on.
package egraph

import (
	"fmt"
	"strings"
)

// Class is an e-class: a set of equivalent e-nodes plus analysis data.
// Nodes lists the e-nodes by id; their content lives in the e-graph's
// node table only (EGraph.Node, View.Node). After a Rebuild the ids are
// the class's live nodes (see EGraph), each once.
type Class struct {
	ID    ClassID
	Nodes []ClassID // node ids
	Data  any       // analysis data

	// parents lists the e-nodes with a child in this class, by node id
	// (see EGraph.nodes), in the order Add and Union put them there.
	parents []ClassID
}

// EGraph is a mutable e-graph. The zero value is not usable; call New.
//
// Every table is a slice indexed by id. Adding a new e-node issues one
// ClassID, so nodes and the classes they create share an id space:
// node i is the one whose insertion created class i, Add issued it
// stamp i+1 (see stamps), and Find(i) is the class it lives in now.
//
// A node is live from Add until a repair finds it congruent to another
// live node; then it is dead for good (flagDead), since congruent nodes
// stay congruent. The live nodes are the memo's entries, and every one
// is in the parent list of each of its children's classes, so the
// repair of a merged class reaches every live node whose children
// changed. A dead node is out of the memo, leaves its class in the
// dedupe that ends the Rebuild, and is skipped where a parent list
// still names it.
type EGraph struct {
	uf unionFind
	// nodes is the node table, the one place e-node content lives. Op,
	// Int, Str and the Children slice header never change after Add;
	// repair rewrites the children array in place to canonical ids, after
	// the node is unlinked from the memo and before it is linked again.
	nodes []Node
	// stamps is indexed by node id: the stamp Add issued, lowered by
	// dedupe to the earliest stamp of the node's congruence group.
	stamps []int64
	// memo is the hash-cons table: chained buckets over node ids (stored
	// +1, so zero means none), one live node per distinct content. It is
	// a table over ids and not a map on a comparable key because a node
	// may have any number of children.
	memoHeads []int32
	memoNext  []int32 // indexed by node id
	memoLen   int     // linked nodes, the live ones outside a repair
	// classes is the class table: nil at ids merged into another class.
	//
	//lint:classtable
	classes    []*Class
	classCount int

	analysis        Analysis
	pending         []ClassID // classes whose parents need congruence repair
	analysisPending []ClassID
	duplicated      []ClassID // classes holding a node found congruent to another since the last Rebuild

	// Scratch kept between calls so the hot paths allocate nothing.
	children []ClassID // canonical children of the node in hand
	arena    []ClassID // chunk new nodes' children are carved from
	flags    []uint8   // per id: flagRepaired, flagEmitted

	opNames []string
}

const (
	flagRepaired uint8 = 1 << iota // class already repaired in this Rebuild round
	flagEmitted                    // node already emitted by the repair or dedupe walk in progress
	flagDead                       // node found congruent to a live one: out of the memo for good
)

// New creates an empty e-graph. analysis may be nil.
func New(analysis Analysis) *EGraph {
	if analysis == nil {
		analysis = nopAnalysis{}
	}
	return &EGraph{analysis: analysis, memoHeads: make([]int32, 64)}
}

// SetOpNames registers a name table indexed by Op, used only for dumps.
func (g *EGraph) SetOpNames(names []string) { g.opNames = names }

// OpName returns the registered name for op, or "op<N>".
func (g *EGraph) OpName(op Op) string {
	if int(op) < len(g.opNames) {
		return g.opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

// Find returns the canonical representative of id.
func (g *EGraph) Find(id ClassID) ClassID { return g.uf.find(id) }

// canonical returns a copy of n with canonical children in the scratch
// buffer: valid until the next call, and never stored. n's own children
// are only read, so a caller's stack buffer stays on its stack.
func (g *EGraph) canonical(n *Node) Node {
	g.children = g.children[:0]
	for _, c := range n.Children {
		g.children = append(g.children, g.uf.find(c))
	}
	return Node{Op: n.Op, Int: n.Int, Str: n.Str, Children: g.children}
}

// memoFind returns the linked node whose content equals n's.
func (g *EGraph) memoFind(n *Node) (ClassID, bool) {
	for l := g.memoHeads[n.hash()&uint64(len(g.memoHeads)-1)]; l != 0; l = g.memoNext[l-1] {
		if g.nodes[l-1].Equal(*n) {
			return ClassID(l - 1), true
		}
	}
	return 0, false
}

// memoLink links node id under its current content, doubling the
// bucket array when chains average more than one node.
func (g *EGraph) memoLink(id ClassID) {
	if g.memoLen >= len(g.memoHeads) {
		old := g.memoHeads
		g.memoHeads = make([]int32, 2*len(old))
		for _, l := range old {
			for l != 0 {
				next := g.memoNext[l-1]
				g.memoPush(ClassID(l - 1))
				l = next
			}
		}
	}
	g.memoPush(id)
	g.memoLen++
}

func (g *EGraph) memoPush(id ClassID) {
	b := g.nodes[id].hash() & uint64(len(g.memoHeads)-1)
	g.memoNext[id] = g.memoHeads[b]
	g.memoHeads[b] = int32(id) + 1
}

// memoUnlink takes live node id out of the memo. The node's content
// must be what it was linked under.
func (g *EGraph) memoUnlink(id ClassID) {
	l := &g.memoHeads[g.nodes[id].hash()&uint64(len(g.memoHeads)-1)]
	for *l != int32(id)+1 {
		l = &g.memoNext[*l-1]
	}
	*l = g.memoNext[id]
	g.memoLen--
}

// Lookup reports the class containing node n, if n is present.
func (g *EGraph) Lookup(n Node) (ClassID, bool) {
	cn := g.canonical(&n)
	id, ok := g.memoFind(&cn)
	if !ok {
		return 0, false
	}
	return g.uf.find(id), true
}

// Add inserts node n (hash-consed) and returns its e-class. Adding an
// existing node allocates nothing and returns the existing class. A new
// node keeps its own copy of n's payload string and children, so
// nothing of n outlives the call and a caller may build n's Children in
// a stack buffer.
func (g *EGraph) Add(n Node) ClassID { return g.add(n, nil, false) }

// AddData is Add for a caller that holds n's analysis data, which must
// equal what Make would give it. An existing node keeps its class's.
func (g *EGraph) AddData(n Node, data any) ClassID { return g.add(n, data, true) }

func (g *EGraph) add(n Node, data any, supplied bool) ClassID {
	query := g.canonical(&n)
	if id, ok := g.memoFind(&query); ok {
		return g.uf.find(id)
	}
	cn := Node{Op: n.Op, Int: n.Int, Str: strings.Clone(n.Str)}
	if k := len(query.Children); k > 0 {
		if cap(g.arena)-len(g.arena) < k {
			g.arena = make([]ClassID, 0, 1024+k)
		}
		g.arena = append(g.arena, query.Children...)
		cn.Children = g.arena[len(g.arena)-k : len(g.arena) : len(g.arena)]
	}
	id := g.uf.makeSet()
	g.nodes = append(g.nodes, cn)
	g.stamps = append(g.stamps, g.Stamp())
	g.memoNext = append(g.memoNext, 0)
	g.flags = append(g.flags, 0)
	cls := &Class{ID: id, Nodes: []ClassID{id}, Data: data}
	if !supplied {
		cls.Data = g.analysis.Make(g, cn)
	}
	g.classes = append(g.classes, cls)
	g.classCount++
	for _, ch := range cn.Children {
		//lint:canonical cn's children were canonicalized just above and nothing has been unioned since
		chc := g.classes[ch]
		chc.parents = append(chc.parents, id)
	}
	g.memoLink(id)
	return id
}

// Union merges the e-classes of a and b, returning the canonical id of
// the merged class and whether anything changed. Congruence repair is
// deferred until Rebuild.
func (g *EGraph) Union(a, b ClassID) (ClassID, bool) {
	ra, rb := g.uf.find(a), g.uf.find(b)
	if ra == rb {
		return ra, false
	}
	root := g.uf.union(ra, rb)
	other := ra
	if other == root {
		other = rb
	}
	keep, lose := g.classes[root], g.classes[other]
	keep.Nodes = append(keep.Nodes, lose.Nodes...)
	keep.parents = append(keep.parents, lose.parents...)
	merged, changed := g.analysis.Merge(keep.Data, lose.Data)
	keep.Data = merged
	g.classes[other] = nil
	g.classCount--
	g.pending = append(g.pending, root)
	if changed {
		g.analysisPending = append(g.analysisPending, root)
	}
	return root, true
}

// Rebuild restores the congruence and hash-consing invariants after a
// batch of unions, in the deferred style of egg. It must be called
// before searching the e-graph again.
func (g *EGraph) Rebuild() {
	if len(g.pending) == 0 && len(g.analysisPending) == 0 {
		return // nothing to repair; keep no-op rebuilds write-free
	}
	for len(g.pending) > 0 || len(g.analysisPending) > 0 {
		todo := g.pending
		g.pending = nil
		g.eachOnce(todo, g.repair)
		todo = g.analysisPending
		g.analysisPending = nil
		g.eachOnce(todo, g.repairAnalysis)
	}
	// Only a class that holds a node repair found congruent to another
	// can hold a duplicate: no other node's children changed.
	g.eachOnce(g.duplicated, g.dedupe)
	g.duplicated = g.duplicated[:0]
}

// eachOnce calls f on the current representative of every id of todo,
// in order and once per representative. It reuses todo's storage, so
// f must not append to the slice todo was taken from.
func (g *EGraph) eachOnce(todo []ClassID, f func(ClassID)) {
	done := todo[:0]
	for _, id := range todo {
		id = g.uf.find(id)
		if g.flags[id]&flagRepaired == 0 {
			g.flags[id] |= flagRepaired
			done = append(done, id)
			f(id)
		}
	}
	for _, id := range done {
		g.flags[id] &^= flagRepaired
	}
}

// repair re-canonicalizes the live parent nodes of a merged class in
// place. One that has become congruent to another live node dies, and
// their classes are unioned. The class's parent list is left holding
// live nodes only, without repeats, in first-occurrence order.
// Rebuild passes id through uf.find before every call.
//
//lint:canonical id
func (g *EGraph) repair(id ClassID) {
	cls := g.classes[id]
	parents := cls.parents
	cls.parents = nil
	kept := parents[:0]
	for _, p := range parents {
		if g.flags[p]&flagDead != 0 {
			continue // the class lists its live twin as well
		}
		n := &g.nodes[p]
		g.memoUnlink(p)
		for i, ch := range n.Children {
			n.Children[i] = g.uf.find(ch)
		}
		rep, congruent := g.memoFind(n)
		if congruent {
			g.flags[p] |= flagDead
			g.Union(rep, p)
			g.duplicated = append(g.duplicated, rep)
		} else {
			rep = p
			g.memoLink(p)
		}
		if g.flags[rep]&flagEmitted == 0 {
			g.flags[rep] |= flagEmitted
			kept = append(kept, rep)
		}
	}
	for _, p := range kept {
		g.flags[p] &^= flagEmitted
	}
	// A union above may have merged this class into another, or another
	// (and its parents) into this one: the repaired list goes after.
	if cls = g.classes[g.uf.find(id)]; len(cls.parents) == 0 {
		cls.parents = kept
	} else {
		cls.parents = append(cls.parents, kept...)
	}
}

// repairAnalysis propagates analysis data changes upward: every parent's
// data is remade and merged into its class.
func (g *EGraph) repairAnalysis(id ClassID) {
	for _, p := range g.classes[g.uf.find(id)].parents {
		pid := g.uf.find(p)
		pcls := g.classes[pid]
		data := g.analysis.Make(g, g.canonical(&g.nodes[p]))
		merged, changed := g.analysis.Merge(pcls.Data, data)
		pcls.Data = merged
		if changed {
			g.analysisPending = append(g.analysisPending, pid)
		}
	}
}

// dedupe removes duplicate nodes from a class (they appear when child
// merges make two of its nodes congruent): each group of congruent
// entries becomes its memo-linked node, a live entry of the group, at
// the first entry's place, with the group's earliest stamp, so "last
// added" queries of cycle resolution stay stable across rebuilds.
// Rebuild passes id through uf.find.
//
//lint:canonical id
func (g *EGraph) dedupe(id ClassID) {
	cls := g.classes[id]
	nodes := cls.Nodes[:0]
	for _, n := range cls.Nodes {
		cn := g.canonical(&g.nodes[n])
		rep, ok := g.memoFind(&cn)
		if !ok {
			panic(fmt.Sprintf("egraph: node %s of class %d is not in the memo after repair", g.NodeString(cn), id))
		}
		g.stamps[rep] = min(g.stamps[rep], g.stamps[n])
		if g.flags[rep]&flagEmitted == 0 {
			g.flags[rep] |= flagEmitted
			nodes = append(nodes, rep)
		}
	}
	for _, rep := range nodes {
		g.flags[rep] &^= flagEmitted
	}
	cls.Nodes = nodes
}

// Class returns the e-class for id (canonicalized). It panics if the
// id was never issued by this e-graph.
func (g *EGraph) Class(id ClassID) *Class { return g.classes[g.uf.find(id)] }

// Classes calls f for every canonical class in ascending id order.
// Mutating the e-graph during iteration is not allowed.
func (g *EGraph) Classes(f func(*Class)) {
	for _, cls := range g.classes {
		if cls != nil {
			f(cls)
		}
	}
}

// ClassCount returns the number of e-classes.
func (g *EGraph) ClassCount() int { return g.classCount }

// NodeCount returns the number of distinct e-nodes.
func (g *EGraph) NodeCount() int { return g.memoLen }

// Stamp returns the current value of the global insertion counter: the
// stamp of the most recently inserted node.
func (g *EGraph) Stamp() int64 { return int64(len(g.nodes)) }

// Node returns node id's content, to be read, never written. Class
// entries of a rebuilt e-graph name live nodes: their children are canonical.
func (g *EGraph) Node(id ClassID) *Node { return &g.nodes[id] }

// NodeStamp returns node id's stamp, the earliest of its congruence
// group: cycle resolution filters the node with the largest on a cycle.
func (g *EGraph) NodeStamp(id ClassID) int64 { return g.stamps[id] }

// NodeString renders a node with registered op names.
func (g *EGraph) NodeString(n Node) string {
	var b strings.Builder
	b.WriteString(g.OpName(n.Op))
	if n.Int != 0 {
		fmt.Fprintf(&b, "#%d", n.Int)
	}
	if n.Str != "" {
		fmt.Fprintf(&b, "%q", n.Str)
	}
	if len(n.Children) > 0 {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "e%d", g.uf.find(c))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Dump renders the whole e-graph, one class per line, for debugging.
func (g *EGraph) Dump() string {
	var b strings.Builder
	g.Classes(func(cls *Class) {
		fmt.Fprintf(&b, "e%d:", cls.ID)
		for _, n := range cls.Nodes {
			b.WriteString(" ")
			b.WriteString(g.NodeString(g.nodes[n]))
		}
		b.WriteByte('\n')
	})
	return b.String()
}
