package rewrite

import (
	"slices"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// This file is the exploration phase written the obvious way, the oracle
// FuzzExplore holds Runner to. Each iteration snapshots the class lists,
// searches every rule's sources on the snapshot with the reference
// interpreter, and enumerates the cartesian product of the lists in the
// runner's order. Each match is shape-checked, passed through Cond and
// pre-filtered by naive reachability (naiveOrder, the oracle of
// TestReachesAgainstReference), then applied with no redundancy probe;
// an application counts when it changed the e-graph. The iteration ends
// with a rebuild and the cycle post-pass as a plain recursive DFS. It
// stops as the runner does, on the node limit before every visit and
// on the iteration limit, and has no deadline. It shares nothing with
// the runner but Ingest and the e-graph.

// ReferenceExplore explores t under rules as Runner would with filter
// and lim (lim.MaxNodes must be set), and returns the e-graph, the
// filter list and the counters it keeps: Iterations, Stop, Matches and
// Applied.
func ReferenceExplore(t *tensor.Graph, rules []*Rule, filter FilterMode, lim Limits) (*Explored, error) {
	g, root, _, err := Ingest(t)
	if err != nil {
		return nil, err
	}
	ex := &Explored{G: g, Root: root, IngestStamp: g.Stamp()}
	ref := &referenceRun{ex: ex, g: g, rules: rules, filter: filter, maxNodes: lim.MaxNodes}
	for iter := 0; ; iter++ {
		if ref.full() {
			ex.Stats.Stop = StopNodeLimit
			break
		}
		if iter >= lim.MaxIters {
			ex.Stats.Stop = StopIterLimit
			break
		}
		applied := ex.Stats.Applied
		ref.iterate(iter < lim.KMulti)
		ex.Stats.Iterations++
		if ex.Stats.Applied == applied && !ref.full() {
			ex.Stats.Stop = StopSaturated
			break
		}
	}
	if filter != FilterNone {
		referencePostPass(g, &ex.Filtered)
	}
	return ex, nil
}

type referenceRun struct {
	ex       *Explored
	g        *egraph.EGraph
	rules    []*Rule
	filter   FilterMode
	maxNodes int
	snap     *snapshot
	order    naiveOrder // the pre-filter's: FilterEfficient the iteration start's, FilterVanilla the live e-graph's
	stale    bool       // FilterVanilla: the e-graph changed since order was taken
}

func (ref *referenceRun) full() bool { return ref.g.NodeCount() >= ref.maxNodes }

func (ref *referenceRun) iterate(useMulti bool) {
	g := ref.g
	ref.snap = snapshotOf(g)
	ref.order, ref.stale = naiveOrderOf(g, &ref.ex.Filtered), false
	for _, rule := range ref.rules {
		if rule.IsMulti() && !useMulti {
			continue
		}
		if ref.full() {
			break
		}
		lists := make([][]pattern.Match, len(rule.Sources))
		for i, src := range rule.Sources {
			lists[i] = pattern.ReferenceSearchClasses(ref.snap, src, ref.snap.classes)
		}
		if !ref.enumerate(rule, lists, 0, pattern.Subst{}, nil) {
			break
		}
	}
	g.Rebuild()
	if ref.filter != FilterNone {
		referencePostPass(g, &ref.ex.Filtered)
	}
}

// enumerate visits the combinations of one match per source from
// source i on that agree, by the live Find, on the variables sources
// share; the first source to bind a variable keeps its binding. It
// reports false once the node limit holds.
func (ref *referenceRun) enumerate(rule *Rule, lists [][]pattern.Match, i int, s pattern.Subst, matched []egraph.ClassID) bool {
	if ref.full() {
		return false
	}
	if i == len(lists) {
		ref.ex.Stats.Matches++
		ref.apply(rule, s, matched)
		return true
	}
next:
	for _, m := range lists[i] {
		ext := s.Clone()
		for v, id := range m.Subst {
			if prev, ok := s[v]; !ok {
				ext[v] = id
			} else if ref.g.Find(prev) != ref.g.Find(id) {
				continue next
			}
		}
		if !ref.enumerate(rule, lists, i+1, ext, append(slices.Clip(matched), m.Class)) {
			return false
		}
	}
	return true
}

func (ref *referenceRun) apply(rule *Rule, s pattern.Subst, matched []egraph.ClassID) {
	g, stats := ref.g, &ref.ex.Stats
	for i, tgt := range rule.Targets {
		out := ClassMeta(g, matched[i])
		m, err := referenceInfer(g, tgt, s, out, 0, 0)
		if err != nil || out == nil || !m.Equivalent(out) {
			stats.SkippedShape++
			return
		}
	}
	meta := func(v string) *tensor.Meta {
		if id, ok := s[v]; ok {
			return ClassMeta(g, id)
		}
		return nil
	}
	if rule.Cond != nil && !rule.Cond(meta) {
		stats.SkippedShape++
		return
	}
	if ref.filter != FilterNone {
		if ref.filter == FilterVanilla && ref.stale {
			ref.order, ref.stale = naiveOrderOf(g, &ref.ex.Filtered), false
		}
		for i, tgt := range rule.Targets {
			cm := g.Find(matched[i])
			for _, v := range tgt.Vars() {
				if b := g.Find(s[v]); b == cm || ref.order.reaches(b, cm) {
					stats.SkippedCycle++
					return
				}
			}
		}
	}
	stamp, changed := g.Stamp(), false
	for i, tgt := range rule.Targets {
		id := referenceAdd(g, tgt, s, ClassMeta(g, matched[i]), 0, 0)
		if _, ch := g.Union(id, matched[i]); ch {
			changed = true
		}
	}
	if changed || g.Stamp() != stamp {
		stats.Applied++
		ref.stale = true
	}
}

// referenceInfer infers p's meta from the class metas of its variables.
// depth is p's in the target; a split under the root cuts where out,
// the meta of the class the root joins, says.
func referenceInfer(g *egraph.EGraph, p *pattern.Pat, s pattern.Subst, out *tensor.Meta, depth int, proj tensor.Op) (*tensor.Meta, error) {
	if p.IsVar() {
		return ClassMeta(g, s[p.Var]), nil
	}
	var args []*tensor.Meta
	for _, c := range p.Children {
		m, err := referenceInfer(g, c, s, out, depth+1, rootOp(p, depth))
		if err != nil {
			return nil, err
		}
		args = append(args, m)
	}
	at := p.Int
	if p.Op == tensor.OpSplit {
		at = tensor.SplitBoundary(proj, args[0], args[1], out)
	}
	return tensor.Infer(p.Op, at, p.Str, args)
}

// referenceAdd adds p to g, children first, and returns its class.
func referenceAdd(g *egraph.EGraph, p *pattern.Pat, s pattern.Subst, out *tensor.Meta, depth int, proj tensor.Op) egraph.ClassID {
	if p.IsVar() {
		return g.Find(s[p.Var])
	}
	n := egraph.Node{Op: egraph.Op(p.Op), Int: p.Int, Str: p.Str}
	for _, c := range p.Children {
		n.Children = append(n.Children, referenceAdd(g, c, s, out, depth+1, rootOp(p, depth)))
	}
	if p.Op == tensor.OpSplit {
		n.Int = tensor.SplitBoundary(proj, ClassMeta(g, n.Children[0]), ClassMeta(g, n.Children[1]), out)
	}
	return g.Add(n)
}

// rootOp is the proj p's children get: p's op when p is the root, else
// 0. A split's proj is nonzero only right under the root.
func rootOp(p *pattern.Pat, depth int) tensor.Op {
	if depth == 0 {
		return p.Op
	}
	return 0
}

// snapshot is the e-graph's class lists and union-find as they stood
// when it was taken. Node content does not change before the next
// rebuild, so Node reads the e-graph.
type snapshot struct {
	g       *egraph.EGraph
	find    map[egraph.ClassID]egraph.ClassID
	nodes   map[egraph.ClassID][]egraph.ClassID
	classes []*egraph.Class
}

func snapshotOf(g *egraph.EGraph) *snapshot {
	s := &snapshot{g: g, find: map[egraph.ClassID]egraph.ClassID{}, nodes: map[egraph.ClassID][]egraph.ClassID{}}
	for id := egraph.ClassID(0); int64(id) < g.Stamp(); id++ {
		s.find[id] = g.Find(id)
	}
	g.Classes(func(cls *egraph.Class) {
		s.nodes[cls.ID] = slices.Clone(cls.Nodes)
		s.classes = append(s.classes, &egraph.Class{ID: cls.ID})
	})
	return s
}

func (s *snapshot) Find(id egraph.ClassID) egraph.ClassID    { return s.find[id] }
func (s *snapshot) Nodes(id egraph.ClassID) []egraph.ClassID { return s.nodes[s.find[id]] }
func (s *snapshot) Node(id egraph.ClassID) *egraph.Node      { return s.g.Node(id) }

// referencePostPass is Algorithm 2's post-processing as a plain
// recursive DFS: collect one cycle per back edge, as the stamps of the
// nodes whose children make its edges; filter the latest node of each
// cycle no earlier filtering broke; repeat until no cycle is left.
func referencePostPass(g *egraph.EGraph, filtered *FilterSet) {
	for {
		state := map[egraph.ClassID]int{} // 1 on the stack, 2 done
		depth := map[egraph.ClassID]int{}
		var path []int64 // path[k]: the stamp of the node entering the class at depth k+1
		var cycles [][]int64
		var dfs func(id egraph.ClassID)
		dfs = func(id egraph.ClassID) {
			state[id], depth[id] = 1, len(path)
			for _, n := range g.Class(id).Nodes {
				st := g.NodeStamp(n)
				if filtered.Has(st) {
					continue
				}
				for _, ch := range g.Node(n).Children {
					switch c := g.Find(ch); state[c] {
					case 1:
						cycles = append(cycles, append(slices.Clone(path[depth[c]:]), st))
					case 0:
						path = append(path, st)
						dfs(c)
						path = path[:len(path)-1]
					}
				}
			}
			state[id] = 2
		}
		g.Classes(func(cls *egraph.Class) {
			if state[cls.ID] == 0 {
				dfs(cls.ID)
			}
		})
		if len(cycles) == 0 {
			return
		}
		for _, cyc := range cycles {
			if !slices.ContainsFunc(cyc, filtered.Has) {
				filtered.Add(slices.Max(cyc))
			}
		}
	}
}
