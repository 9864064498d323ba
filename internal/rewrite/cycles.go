package rewrite

import (
	"slices"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
)

// This file is Algorithm 2 (§5.2): the descendants map the pre-filter
// consults, the DFS that collects cycles, and the post-processing loop
// that filters the last-added node of each. All three walk the class
// graph through a cycleFilter, which numbers the canonical classes
// 0..C-1 (ascending id) for the walk in hand and keeps every per-class
// fact in a slice indexed by that number. Class ids are issued per
// e-node, so there are about 2.5 of them per live class: indexing by
// dense number is what keeps a descendant row C bits wide.
//
// The descendants map is one slab of C rows of ⌈C/64⌉ words — C²/64
// words, 12 MB at 10,000 classes — so it is allocated once per
// exploration run, grown when C grows, and released with the run: it
// is too large to rebuild every iteration and too large to park in a
// process-wide pool between runs.

// FilterSet marks e-nodes as removed from the e-graph for extraction
// purposes (the "filter list" of Algorithm 2): a bit table indexed by
// the node's stamp (egraph.EGraph.NodeStamp, 1..EGraph.Stamp()); the
// zero value is empty. Filtered nodes stay in the e-graph (removal
// would break congruence bookkeeping) but are ignored by descendant
// computation, cycle detection and extraction; the ILP extractor adds
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

// cycleFilter is the scratch of Algorithm 2, reused from walk to walk.
// The zero value is ready to use.
type cycleFilter struct {
	number []int32 // ClassID -> 1 + dense number of a canonical class, 0 otherwise
	state  []uint8 // per dense number: 0 unvisited, 1 on the DFS stack, 2 done
	pos    []int32 // per dense number: DFS depth, while on the stack
	words  int     // words per descendants row
	slab   []uint64
}

// renumber numbers g's canonical classes and clears the DFS state.
func (f *cycleFilter) renumber(g *egraph.EGraph) int {
	classes := g.ClassCount()
	f.number = append(f.number[:0], make([]int32, g.Stamp())...)
	f.state = append(f.state[:0], make([]uint8, classes)...)
	f.pos = append(f.pos[:0], make([]int32, classes)...)
	next := int32(0)
	g.Classes(func(cls *egraph.Class) {
		next++
		f.number[cls.ID] = next
	})
	return classes
}

// computeDescendants makes one pass over the e-graph and records, for
// each e-class, the set of e-classes reachable strictly below it
// through unfiltered nodes (the GETDESCENDANTS step of Algorithm 2).
// The e-graph must be acyclic modulo filtered nodes; if a residual
// cycle is encountered the edge closing it is ignored (the
// post-processing pass will resolve it).
func (f *cycleFilter) computeDescendants(g *egraph.EGraph, filtered *FilterSet) {
	classes := f.renumber(g)
	f.words = (classes + 63) / 64
	// Rows are cleared as the walk reaches them, so what the slab held
	// before does not matter.
	f.slab = slices.Grow(f.slab[:0], classes*f.words)[:classes*f.words]
	var dfs func(cls *egraph.Class, k int32)
	dfs = func(cls *egraph.Class, k int32) {
		f.state[k] = 1
		row := f.slab[int(k)*f.words : (int(k)+1)*f.words]
		clear(row)
		for _, n := range cls.Nodes {
			if filtered.Has(g.NodeStamp(n)) {
				continue
			}
			for _, ch := range g.Node(n).Children {
				c := f.number[g.Find(ch)] - 1
				// A child on the stack closes a residual cycle: skip the
				// edge, post-processing fixes it. A child already in the row
				// brought its own descendants with it: rows are final once
				// their class is done, and only done rows are folded in.
				if f.state[c] == 1 || row[c>>6]&(1<<(uint(c)&63)) != 0 {
					continue
				}
				if f.state[c] == 0 {
					dfs(g.Class(ch), c)
				}
				row[c>>6] |= 1 << (uint(c) & 63)
				for w, bits := range f.slab[int(c)*f.words : (int(c)+1)*f.words] {
					row[w] |= bits
				}
			}
		}
		f.state[k] = 2
	}
	g.Classes(func(cls *egraph.Class) {
		if k := f.number[cls.ID] - 1; f.state[k] == 0 {
			dfs(cls, k)
		}
	})
}

// reaches reports whether class to was strictly below class from when
// the descendants were computed. A class created since has no row and
// is in no row.
func (f *cycleFilter) reaches(from, to egraph.ClassID) bool {
	if int(from) >= len(f.number) || int(to) >= len(f.number) {
		return false
	}
	a, b := f.number[from]-1, f.number[to]-1
	return a >= 0 && b >= 0 && f.slab[int(a)*f.words+int(b>>6)]&(1<<(uint(b)&63)) != 0
}

// willCreateCycle is the pre-filtering check of Algorithm 2 (line 6):
// applying the rewrite would add nodes under class `matched` whose
// leaves are the classes bound to the target's variables; a cycle
// appears iff some bound class can already reach `matched` (or is
// `matched` itself). The check is sound but not complete: the
// descendants are a snapshot from the start of the iteration.
func (f *cycleFilter) willCreateCycle(g *egraph.EGraph, target *pattern.Target,
	bind []egraph.ClassID, matched egraph.ClassID) bool {
	cm := g.Find(matched)
	for _, slot := range target.Slots() {
		if b := g.Find(bind[slot]); b == cm || f.reaches(b, cm) {
			return true
		}
	}
	return false
}

// findCycles performs the DFSGETCYCLES pass of Algorithm 2: a DFS over
// the class graph (through unfiltered nodes) collecting one cycle per
// back edge encountered. A cycle is the stamps of the e-nodes whose
// children make up its edges.
func (f *cycleFilter) findCycles(g *egraph.EGraph, filtered *FilterSet) [][]int64 {
	f.renumber(g)
	var stack []int64 // stack[k] is the stamp of the node entering the class at depth k+1
	var cycles [][]int64

	var dfs func(cls *egraph.Class, k int32, depth int)
	dfs = func(cls *egraph.Class, k int32, depth int) {
		f.state[k] = 1
		f.pos[k] = int32(depth)
		for _, n := range cls.Nodes {
			stamp := g.NodeStamp(n)
			if filtered.Has(stamp) {
				continue
			}
			for _, ch := range g.Node(n).Children {
				c := f.number[g.Find(ch)] - 1
				switch f.state[c] {
				case 1: // back edge: cycle through stack from ch to id, plus this edge
					start := int(f.pos[c])
					cyc := append(make([]int64, 0, depth-start+1), stack[start:depth]...)
					cycles = append(cycles, append(cyc, stamp))
				case 0:
					stack = append(stack, stamp)
					dfs(g.Class(ch), c, depth+1)
					stack = stack[:depth]
				}
			}
		}
		f.state[k] = 2
	}
	g.Classes(func(cls *egraph.Class) {
		if k := f.number[cls.ID] - 1; f.state[k] == 0 {
			dfs(cls, k, 0)
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
