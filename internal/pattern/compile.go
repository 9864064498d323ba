package pattern

import (
	"slices"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// This file implements the compiled e-matching engine. A Pat is
// compiled once (Compile) into a Program: a flat instruction sequence
// over an integer register file, in the style of egg's e-matching
// virtual machine. Register 0 holds the candidate root e-class; a bind
// instruction enumerates the nodes of a class that carry the pattern's
// operator and payloads, writing the canonical children classes into
// fresh registers; a compare instruction enforces non-linear variables
// (a variable occurring twice must bind the same e-class). Variables
// are register slots, so a match's substitution is a flat run of
// ClassIDs instead of a string-keyed map, and a match list (Matches) is
// two pointer-free arrays the garbage collector never scans. The other
// half of a rule is compiled the same way: a Target reads the bindings
// by slot, and one bottom-up walk of it (Target.Walk) finds what of the
// rule's right-hand side is present, shape-checks the rest and plans
// its addition (Plan.Apply).
//
// The enumeration order is exactly the interpreter's: for every class
// in the given scan order, nodes in class order, child choices nested
// left-to-right depth-first. ReferenceSearchClasses (reference.go)
// preserves the old interpreter as the oracle the differential tests
// compare against.

type instKind uint8

const splitOp = egraph.Op(tensor.OpSplit)

const (
	// instBind enumerates the nodes of class regs[a] with the
	// instruction's op/payloads/arity (a split's any boundary, as in
	// Pat.Accepts), writing canonical children into regs[out:out+arity]
	// and running the rest of the program for each.
	instBind instKind = iota
	// instCompare requires regs[a] == regs[b] (both canonical): the
	// consistency check for a repeated variable.
	instCompare
)

type inst struct {
	kind  instKind
	a, b  int
	op    egraph.Op
	i64   int64
	str   string
	arity int
	out   int
}

// Program is a compiled pattern. Compile once, match many times; a
// Program is immutable after compilation and safe for concurrent use
// from any number of goroutines (each match run has its own register
// file, on its stack).
type Program struct {
	insts   []inst
	nregs   int
	varRegs []int    // register holding each variable, first-occurrence order
	vars    []string // variable names, parallel to varRegs
	rootOp  egraph.Op
	rootVar bool // the pattern is a bare variable: matches every class
}

// Compile translates p into its instruction program.
func Compile(p *Pat) *Program {
	pr := &Program{}
	varReg := make(map[string]int)
	next := 1 // register 0 is the root class
	var walk func(q *Pat, reg int)
	walk = func(q *Pat, reg int) {
		if q.IsVar() {
			if prev, ok := varReg[q.Var]; ok {
				pr.insts = append(pr.insts, inst{kind: instCompare, a: reg, b: prev})
				return
			}
			varReg[q.Var] = reg
			pr.varRegs = append(pr.varRegs, reg)
			pr.vars = append(pr.vars, q.Var)
			return
		}
		in := inst{
			kind:  instBind,
			a:     reg,
			op:    egraph.Op(q.Op),
			i64:   q.Int,
			str:   q.Str,
			arity: len(q.Children),
			out:   next,
		}
		next += len(q.Children)
		pr.insts = append(pr.insts, in)
		for i, c := range q.Children {
			walk(c, in.out+i)
		}
	}
	walk(p, 0)
	pr.nregs = next
	if p.IsVar() {
		pr.rootVar = true
	} else {
		pr.rootOp = egraph.Op(p.Op)
	}
	return pr
}

// Vars returns the pattern's variables in first-occurrence order — the
// slot order of a match's bindings. Callers must not modify the slice.
func (pr *Program) Vars() []string { return pr.vars }

// RootOp returns the operator at the pattern root and true, or ok=false
// when the pattern is a bare variable and every class is a candidate.
func (pr *Program) RootOp() (op egraph.Op, ok bool) {
	return pr.rootOp, !pr.rootVar
}

// Matches is a match list as a struct of arrays: Roots[i] is the root
// e-class of match i and Bind(i) its variable bindings in Vars order,
// all in one flat array. Neither array holds a pointer, and a list is
// reused by truncating it, so a steady-state search allocates nothing.
// One list holds the matches of one program.
type Matches struct {
	Roots []egraph.ClassID
	binds []egraph.ClassID
	vars  int // bindings per match
}

// Len returns the number of matches.
func (ms *Matches) Len() int { return len(ms.Roots) }

// Bind returns match i's bindings; treat it as read-only.
func (ms *Matches) Bind(i int) []egraph.ClassID {
	return ms.binds[i*ms.vars : (i+1)*ms.vars : (i+1)*ms.vars]
}

// Reset empties the list, keeping its storage.
func (ms *Matches) Reset() { ms.Roots, ms.binds = ms.Roots[:0], ms.binds[:0] }

// grow makes room for n more matches, at least doubling the storage. A
// run's lists grow with its e-graph, iteration after iteration, and
// append's own 1.25x steps would reallocate them five times over.
func (ms *Matches) grow(n int) {
	if need := len(ms.Roots) + n; need > cap(ms.Roots) {
		c := max(need, 2*cap(ms.Roots), 256)
		ms.Roots = append(make([]egraph.ClassID, 0, c), ms.Roots...)
		ms.binds = append(make([]egraph.ClassID, 0, c*ms.vars), ms.binds...)
	}
}

// Subst expands one match's bindings into the map form of the classic API.
func (pr *Program) Subst(bind []egraph.ClassID) Subst {
	s := make(Subst, len(pr.vars))
	for i, v := range pr.vars {
		s[v] = bind[i]
	}
	return s
}

// stackRegs is how many registers a match run keeps on its stack; the
// largest built-in pattern (two seven-argument pools under a concat)
// needs 18. A larger program allocates its register file per run.
const stackRegs = 32

// AppendMatches scans classes in order, appending every match rooted
// at each class to dst. The scan order and per-class enumeration order
// reproduce the reference interpreter exactly, so sharded scans
// concatenated in shard order equal one whole scan. dst grows like any
// slice, so a scan into a list with room allocates nothing.
func (pr *Program) AppendMatches(dst *Matches, v *egraph.View, classes []*egraph.Class) {
	var stack [stackRegs]egraph.ClassID
	regs := stack[:]
	if pr.nregs > len(stack) {
		regs = make([]egraph.ClassID, pr.nregs)
	}
	dst.vars = len(pr.varRegs)
	var exec func(pc int)
	exec = func(pc int) {
		for pc < len(pr.insts) {
			in := &pr.insts[pc]
			if in.kind == instCompare {
				if regs[in.a] != regs[in.b] {
					return
				}
				pc++
				continue
			}
			for _, id := range v.Nodes(regs[in.a]) {
				n := v.Node(id)
				if n.Op != in.op || (n.Int != in.i64 && in.op != splitOp) || n.Str != in.str || len(n.Children) != in.arity {
					continue
				}
				for k, ch := range n.Children {
					regs[in.out+k] = v.Find(ch)
				}
				exec(pc + 1)
			}
			return
		}
		// All instructions satisfied: record the match.
		if len(dst.Roots) == cap(dst.Roots) {
			dst.grow(1)
		}
		dst.Roots = append(dst.Roots, regs[0])
		for _, r := range pr.varRegs {
			dst.binds = append(dst.binds, regs[r])
		}
	}
	for _, cls := range classes {
		regs[0] = v.Find(cls.ID)
		exec(0)
	}
}

// Target is a rule's right-hand side compiled against the rule's
// variable slots: where the pattern names a variable, the target holds
// an index into the binding array a match supplies, so applying a
// rewrite builds no substitution map.
//
// A split under a split0 or split1 root cuts where out, the meta of the
// class the root joins, says (tensor.SplitBoundary).
type Target struct {
	slot     int // variable: its slot; operator: -1
	op       tensor.Op
	i64      int64
	str      string
	children []Target
	slots    []int     // at the root: the distinct variable slots, in first-occurrence order
	proj     tensor.Op // at the root's children: the root's op; else 0
}

// CompileTarget compiles p against vars, the slot order of the bindings
// it will be given. It panics on a variable of p that vars lacks.
func CompileTarget(p *Pat, vars []string) *Target {
	var slots []int
	var walk func(q *Pat) Target
	walk = func(q *Pat) Target {
		if q.IsVar() {
			slot := slices.Index(vars, q.Var)
			if slot < 0 {
				panic("pattern: CompileTarget: no slot for variable " + q.Var)
			}
			if !slices.Contains(slots, slot) {
				slots = append(slots, slot)
			}
			return Target{slot: slot}
		}
		t := Target{slot: -1, op: q.Op, i64: q.Int, str: q.Str, children: make([]Target, len(q.Children))}
		for i, c := range q.Children {
			t.children[i] = walk(c)
		}
		return t
	}
	root := walk(p)
	root.slots = slots
	for i := range root.children {
		root.children[i].proj = root.op
	}
	return &root
}

// Slots returns the slots of the target's variables, each once, in
// first-occurrence order. Callers must not modify the slice.
func (t *Target) Slots() []int { return t.slots }

// targetArity is the child count up to which a walk gathers a node's
// children and their metas in stack arrays (the tensor operators take
// at most seven).
const targetArity = 8

// Plan is what one walk of a target found missing from the e-graph: the
// nodes to add, in the order adding them creates them, each with the
// meta the walk inferred, and the target's root. A planned node's child
// below zero names planned node -c-1. A Plan is scratch reused from
// walk to walk; the zero value is ready.
type Plan struct {
	nodes []plannedNode
	kids  []egraph.ClassID // storage for the planned nodes' children
	root  egraph.ClassID
}

type plannedNode struct {
	n    egraph.Node
	meta *tensor.Meta
	id   egraph.ClassID // its class, once Apply added it
}

// Walk walks the target bottom-up over g, with bind[slot] for each
// variable, and plans what g lacks. A variable yields its class and
// that class's meta. An operator whose children are all present is
// looked up: a hit yields its class and that class's meta; a miss, or
// an operator over a planned child, is planned with the meta inferred
// from its children's. A split under the root cuts where out, the meta
// of the class the root joins, says (tensor.SplitBoundary).
//
// It returns the root's class (below zero when planned) and meta, or
// ok=false when a slot is past bind (no source binds it) or an
// inference fails. It changes nothing, and allocates nothing over a
// present target.
func (t *Target) Walk(g *egraph.EGraph, bind []egraph.ClassID, out *tensor.Meta, plan *Plan) (root egraph.ClassID, meta *tensor.Meta, ok bool) {
	plan.nodes, plan.kids = plan.nodes[:0], plan.kids[:0]
	plan.root, meta, ok = t.walk(g, bind, out, plan)
	return plan.root, meta, ok
}

func (t *Target) walk(g *egraph.EGraph, bind []egraph.ClassID, out *tensor.Meta, plan *Plan) (egraph.ClassID, *tensor.Meta, bool) {
	if t.slot >= 0 {
		if t.slot >= len(bind) {
			return 0, nil, false
		}
		id := g.Find(bind[t.slot])
		m, _ := g.Class(id).Data.(*tensor.Meta)
		return id, m, true
	}
	var idBuf [targetArity]egraph.ClassID
	var metaBuf [targetArity]*tensor.Meta
	ids, metas := idBuf[:0], metaBuf[:0]
	present := true
	for i := range t.children {
		id, m, ok := t.children[i].walk(g, bind, out, plan)
		if !ok {
			return 0, nil, false
		}
		ids, metas = append(ids, id), append(metas, m)
		present = present && id >= 0
	}
	n := egraph.Node{Op: egraph.Op(t.op), Int: t.i64, Str: t.str, Children: ids}
	if t.op == tensor.OpSplit {
		n.Int = tensor.SplitBoundary(t.proj, metas[0], metas[1], out)
	}
	if present {
		if id, ok := g.Lookup(n); ok {
			m, _ := g.Class(id).Data.(*tensor.Meta)
			return id, m, true
		}
	}
	m, err := tensor.Infer(t.op, n.Int, t.str, metas)
	if err != nil {
		return 0, nil, false
	}
	plan.kids = append(plan.kids, ids...)
	kids := plan.kids[len(plan.kids)-len(ids):]
	plan.nodes = append(plan.nodes, plannedNode{n: egraph.Node{Op: n.Op, Int: n.Int, Str: t.str, Children: kids}, meta: m})
	return -egraph.ClassID(len(plan.nodes)), m, true
}

// Apply adds the planned nodes to g in order, each with the meta the
// walk inferred (EGraph.AddData), and returns the class of the target's
// root. A node added since the walk is found, not added again.
func (p *Plan) Apply(g *egraph.EGraph) egraph.ClassID {
	for i := range p.nodes {
		pn := &p.nodes[i]
		for k, c := range pn.n.Children {
			if c < 0 {
				pn.n.Children[k] = p.nodes[-c-1].id
			}
		}
		pn.id = g.AddData(pn.n, pn.meta)
	}
	if p.root < 0 {
		return p.nodes[-p.root-1].id
	}
	return p.root
}
