package egraph

// View is a frozen, read-only canonical snapshot of an e-graph, built
// by Freeze. EGraph.Find performs path compression and therefore
// mutates the union-find even on logically read-only queries, while
// View.Find is a pure array lookup into a canonical table computed once
// at freeze time. A View holds no locks and performs no writes, so any
// number of goroutines may call its methods concurrently.
//
// Every table of a view is a slice indexed by id, like the e-graph's
// own. Freeze copies the union-find with every path resolved (one word
// per id ever issued), records each canonical class's node-id list
// (its slice header) by class id, shares the e-graph's node table, and
// walks the classes once for the search accelerators: an operator
// index (ByOp: root Op -> the classes containing a node with that op
// in ascending id order, so a pattern rooted at matmul only visits
// matmul-bearing classes) and, on demand, the dirty-class query
// DirtySince, which reports the classes whose match sets may have
// changed since an earlier freeze (the basis of incremental re-search).
//
// Contract: Find, Nodes, Node, Classes and ByOp answer as the e-graph
// stood at the Freeze call until the next Rebuild, whatever Add and
// Union do in between. Add only appends to the e-graph's tables; Union
// writes nil into the class table, which the view does not read, and
// appends to the kept class's node list past the length the view
// recorded. A Rebuild rewrites node lists and children in place and
// ends the view's validity.
//
// The //lint:frozen annotation makes tensatlint's frozenview analyzer
// reject any View method that writes view-owned state or reaches a
// mutating EGraph method (g.Find included — path compression writes).
//
//lint:frozen
type View struct {
	g       *EGraph
	version uint64
	find    []ClassID // id -> canonical representative
	// classNodes is each canonical class's node-id list as of the
	// freeze, by class id: nil at ids that are not canonical.
	//
	//lint:classtable
	classNodes [][]ClassID
	nodes      []Node     // the e-graph's node table as of the freeze
	classes    []*Class   // canonical classes in ascending id order
	byOp       [][]*Class // op -> classes with a node of that op, ascending id order
}

// Freeze captures a read-only canonical view of g. The e-graph must be
// clean; if unions are pending, Freeze rebuilds first (searching an
// un-rebuilt e-graph is never meaningful). The returned view is safe
// for concurrent use until the next Rebuild of g.
func (g *EGraph) Freeze() *View {
	if len(g.pending) > 0 || len(g.analysisPending) > 0 {
		g.Rebuild()
	}
	v := &View{
		g:          g,
		version:    g.version,
		find:       make([]ClassID, g.uf.size()),
		classNodes: make([][]ClassID, len(g.classes)),
		nodes:      g.nodes,
		classes:    make([]*Class, 0, g.classCount),
	}
	for i := range v.find {
		v.find[i] = g.uf.find(ClassID(i))
	}
	// The op index inherits ascending-id order from the class walk, so a
	// per-op candidate scan visits classes in exactly the order a full
	// scan would — pruning never reorders matches. The last-element check
	// dedupes a class holding several nodes of one op.
	for _, cls := range g.classes {
		if cls == nil {
			continue
		}
		v.classes = append(v.classes, cls)
		v.classNodes[cls.ID] = cls.Nodes
		for _, n := range cls.Nodes {
			op := int(g.nodes[n].Op)
			for op >= len(v.byOp) {
				v.byOp = append(v.byOp, nil)
			}
			if l := v.byOp[op]; len(l) == 0 || l[len(l)-1] != cls {
				v.byOp[op] = append(l, cls)
			}
		}
	}
	return v
}

// Find returns the canonical representative of id, without mutating
// anything.
func (v *View) Find(id ClassID) ClassID { return v.find[id] }

// Nodes returns the node ids of id's class as of the freeze
// (canonicalized through the frozen table): read them, never write
// them. It panics if the id was issued after the freeze.
func (v *View) Nodes(id ClassID) []ClassID { return v.classNodes[v.find[id]] }

// Node returns node id's content, as EGraph.Node does: read it, never
// write it.
func (v *View) Node(id ClassID) *Node { return &v.nodes[id] }

// Classes returns every canonical class in ascending ID order — the
// same order EGraph.Classes iterates in. Once the e-graph has changed,
// read a class's nodes through Nodes, not Class.Nodes. Callers may
// slice the result to shard a scan across goroutines; they must not
// modify it.
func (v *View) Classes() []*Class { return v.classes }

// ByOp returns the canonical classes containing at least one node with
// the given op, in ascending ID order — the candidate list for a
// pattern rooted at op. Scanning only these classes yields exactly the
// matches a full Classes scan would, in the same order, because a class
// without the root op can root no match. Callers must not modify the
// returned slice.
func (v *View) ByOp(op Op) []*Class {
	if int(op) >= len(v.byOp) {
		return nil
	}
	return v.byOp[op]
}

// ClassCount returns the number of e-classes in the snapshot.
func (v *View) ClassCount() int { return len(v.classes) }

// Version returns the e-graph mutation version this view was frozen
// at. Feed it to a later view's DirtySince to enumerate the classes
// touched in between.
func (v *View) Version() uint64 { return v.version }

// DirtySince reports the canonical classes whose match sets may have
// changed since the freeze at version since: every class created or
// merged into after that version, closed upward through parent edges.
// The result is indexed by ClassID, one entry per id the e-graph had
// issued at the freeze. since may be any earlier freeze's version, not
// only the latest. The upward closure is what makes incremental
// re-search sound — a pattern rooted at an untouched class C can still gain or lose
// matches when a descendant class (reached through C's nodes) gains
// nodes, and every such C is an ancestor of a touched class.
//
// Conversely, a class not in the returned set has its entire downward
// reachable region unchanged, so matches rooted at it are exactly what
// they were at version since (with all bound class ids still
// canonical). DirtySince reads the e-graph's live classes, so the view
// must be fresh (not Stale): call it before mutating the e-graph.
func (v *View) DirtySince(since uint64) []bool {
	dirty := make([]bool, len(v.find))
	var queue []*Class
	for _, cls := range v.classes {
		if cls.touched > since {
			dirty[cls.ID] = true
			queue = append(queue, cls)
		}
	}
	for len(queue) > 0 {
		cls := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range cls.parents {
			pid := v.find[p]
			if !dirty[pid] {
				dirty[pid] = true
				queue = append(queue, v.g.classes[pid])
			}
		}
	}
	return dirty
}

// Stale reports whether the source e-graph has been mutated (Add,
// Union, or a Rebuild that had work to do) since the view was frozen.
// A view made stale by Add and Union alone still answers as at the
// freeze (see View).
func (v *View) Stale() bool { return v.version != v.g.version }
