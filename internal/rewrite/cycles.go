package rewrite

import (
	"slices"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
)

// This file is Algorithm 2 (§5.2): the DFS that collects cycles, the
// post-processing loop that filters the last-added node of each, and
// the reachability query the pre-filter asks. All three keep their
// per-class facts in cycleFilter slices indexed by class id.
//
// The paper's pre-filter consults a descendants map rebuilt every
// iteration. Here the query answers from an order instead: the cycle
// walk numbers each class in postorder, and once it finds no cycle
// that numbering is a topological order of exactly the graph the next
// iteration freezes, since nothing changes between the post-processing
// pass and the freeze. Every edge of the walk but a back edge descends
// in postorder, so "does b reach m?" is false at once when b's number
// is not above m's, and is otherwise a DFS from b pruned to the
// classes numbered between the two (the pruned search of dynamic
// topological sorting, Pearce & Kelly, ACM JEA 2006). Skipping the
// edges that do not descend skips exactly the walk's back edges, the
// edges that close a residual cycle, which post-processing resolves.

// FilterSet marks e-nodes as removed from the e-graph for extraction
// purposes (the "filter list" of Algorithm 2): a bit table indexed by
// the node's stamp (egraph.EGraph.NodeStamp, 1..EGraph.Stamp()); the
// zero value is empty. Filtered nodes stay in the e-graph (removal
// would break congruence bookkeeping) but are ignored by the
// pre-filter's query, cycle detection and extraction; the ILP extractor adds
// x_i = 0 constraints for them, exactly as §5.2 prescribes.
type FilterSet struct{ bits []uint64 }

// Has reports whether the node with this stamp is filtered.
func (f *FilterSet) Has(stamp int64) bool {
	w := int(stamp >> 6)
	return w < len(f.bits) && f.bits[w]&(1<<(stamp&63)) != 0
}

// Add filters the node with this stamp.
func (f *FilterSet) Add(stamp int64) {
	w := int(stamp >> 6)
	if w >= len(f.bits) {
		f.bits = append(f.bits, make([]uint64, w+1-len(f.bits))...)
	}
	f.bits[w] |= 1 << (stamp & 63)
}

// cycleFilter is the scratch of Algorithm 2, reused from walk to walk
// and query to query. The zero value is ready to use.
type cycleFilter struct {
	state []uint8  // per class id: 0 unvisited, 1 on the DFS stack, 2 done
	pos   []int32  // per class id: DFS depth, while on the stack
	stack []int64  // stack[k] is the stamp of the node entering the class at depth k+1
	post  []int32  // per class id: 1 + postorder number in the last walk, 0 if not a class then
	seen  []uint32 // per class id: the epoch of the last query that visited it
	epoch uint32
	todo  []egraph.ClassID // the query's DFS stack
}

// classGraph is the class graph a query reads: the iteration's frozen
// view for FilterEfficient, the live e-graph (liveGraph) for
// FilterVanilla. It must be the graph the last walk numbered.
type classGraph interface {
	Find(egraph.ClassID) egraph.ClassID
	Nodes(egraph.ClassID) []egraph.ClassID
	Node(egraph.ClassID) *egraph.Node
}

// liveGraph reads the e-graph as it stands.
type liveGraph struct{ *egraph.EGraph }

func (l liveGraph) Nodes(id egraph.ClassID) []egraph.ClassID { return l.Class(id).Nodes }

// reaches reports whether class to is strictly below class from in src,
// through nodes the filter list does not hold and along edges that
// descend in the last walk's postorder, which skips the walk's back
// edges. g supplies the stamps. A class created since the walk reaches
// nothing and is reached by nothing. The query allocates nothing once
// its stack has grown.
func (f *cycleFilter) reaches(src classGraph, g *egraph.EGraph, filtered *FilterSet, from, to egraph.ClassID) bool {
	if int(from) >= len(f.post) || int(to) >= len(f.post) {
		return false
	}
	lo := f.post[to]
	if f.post[from] <= lo {
		return false
	}
	if f.epoch++; f.epoch == 0 { // wrapped: no stamp left is this query's
		clear(f.seen)
		f.epoch = 1
	}
	f.seen[from] = f.epoch
	f.todo = append(f.todo[:0], from)
	for len(f.todo) > 0 {
		k := f.todo[len(f.todo)-1]
		f.todo = f.todo[:len(f.todo)-1]
		for _, n := range src.Nodes(k) {
			if filtered.Has(g.NodeStamp(n)) {
				continue
			}
			for _, ch := range src.Node(n).Children {
				c := src.Find(ch)
				switch p := f.post[c]; {
				case p == lo:
					return true
				case p > lo && p < f.post[k] && f.seen[c] != f.epoch:
					f.seen[c] = f.epoch
					f.todo = append(f.todo, c)
				}
			}
		}
	}
	return false
}

// willCreateCycle is the pre-filtering check of Algorithm 2 (line 6):
// applying the rewrite would add nodes under class `matched` whose
// leaves are the classes bound to the target's variables; a cycle
// appears iff some bound class can already reach `matched` (or is
// `matched` itself). The check is sound but not complete: src is the
// graph the last walk numbered, for FilterEfficient the iteration's
// start.
func (f *cycleFilter) willCreateCycle(g *egraph.EGraph, src classGraph, filtered *FilterSet,
	target *pattern.Target, bind []egraph.ClassID, matched egraph.ClassID) bool {
	cm := g.Find(matched)
	for _, slot := range target.Slots() {
		if b := g.Find(bind[slot]); b == cm || f.reaches(src, g, filtered, b, cm) {
			return true
		}
	}
	return false
}

// findCycles performs the DFSGETCYCLES pass of Algorithm 2: a DFS over
// the class graph (through unfiltered nodes, classes in ascending id
// order) collecting one cycle per back edge encountered. A cycle is the
// stamps of the e-nodes whose children make up its edges. The walk
// numbers the classes in postorder for reaches.
func (f *cycleFilter) findCycles(g *egraph.EGraph, filtered *FilterSet) [][]int64 {
	ids := int(g.Stamp())
	f.state = append(f.state[:0], make([]uint8, ids)...)
	f.pos = append(f.pos[:0], make([]int32, ids)...)
	f.post = append(f.post[:0], make([]int32, ids)...)
	if len(f.seen) < ids {
		f.seen = append(f.seen, make([]uint32, ids-len(f.seen))...)
	}
	next := int32(0)
	var cycles [][]int64

	var dfs func(cls *egraph.Class, depth int)
	dfs = func(cls *egraph.Class, depth int) {
		f.state[cls.ID] = 1
		f.pos[cls.ID] = int32(depth)
		for _, n := range cls.Nodes {
			stamp := g.NodeStamp(n)
			if filtered.Has(stamp) {
				continue
			}
			for _, ch := range g.Node(n).Children {
				c := g.Find(ch)
				switch f.state[c] {
				case 1: // back edge: cycle through stack from ch to id, plus this edge
					start := int(f.pos[c])
					cyc := append(make([]int64, 0, depth-start+1), f.stack[start:depth]...)
					cycles = append(cycles, append(cyc, stamp))
				case 0:
					f.stack = append(f.stack[:depth], stamp)
					dfs(g.Class(c), depth+1)
				}
			}
		}
		f.state[cls.ID] = 2
		next++
		f.post[cls.ID] = next
	}
	g.Classes(func(cls *egraph.Class) {
		if f.state[cls.ID] == 0 {
			dfs(cls, 0)
		}
	})
	return cycles
}

// resolveCycles implements RESOLVECYCLE: for each cycle not already
// broken by an earlier resolution, filter the most recently added
// e-node on it (largest insertion stamp). Returns how many nodes were
// filtered.
func resolveCycles(filtered *FilterSet, cycles [][]int64) int {
	count := 0
	for _, cyc := range cycles {
		if !slices.ContainsFunc(cyc, filtered.Has) {
			filtered.Add(slices.Max(cyc))
			count++
		}
	}
	return count
}

// filterCycles runs the post-processing loop of Algorithm 2 (lines
// 10-18) until the e-graph is acyclic modulo the filter set. It
// returns the number of nodes newly filtered.
//
// Each detect-and-resolve round walks the whole class graph, and large
// e-graphs can need many rounds, so the loop checks done between
// rounds and stops early when it fires — the graph may then still be
// cyclic, and the caller must run a final uncancelable pass (done ==
// nil) before relying on acyclicity.
func (f *cycleFilter) filterCycles(g *egraph.EGraph, filtered *FilterSet, done <-chan struct{}) int {
	total := 0
	for !stopped(done) {
		cycles := f.findCycles(g, filtered)
		if len(cycles) == 0 {
			break
		}
		// findCycles only walks unfiltered edges, so the first cycle in
		// the list is never already broken: progress is guaranteed.
		total += resolveCycles(filtered, cycles)
	}
	return total
}

// IsAcyclic reports whether the class graph is acyclic through
// unfiltered nodes (the invariant the ILP extractor without cycle
// constraints relies on).
func IsAcyclic(g *egraph.EGraph, filtered *FilterSet) bool {
	return len(new(cycleFilter).findCycles(g, filtered)) == 0
}
