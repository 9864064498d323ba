// Package pattern implements TENSAT's rewrite-rule patterns (§3.2):
// S-expressions over the tensor operator set with ?variables, compiled
// to matchers over e-graphs, plus the variable canonicalization used
// by the multi-pattern algorithm (Algorithm 1).
package pattern

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tensat/internal/egraph"
	"tensat/internal/sexpr"
	"tensat/internal/tensor"
)

// Pat is a pattern node: either a variable (Var != "") or an operator
// applied to child patterns. Integer and string atoms become OpInt and
// OpStr literal patterns.
type Pat struct {
	Var      string // "?x" including the question mark
	Op       tensor.Op
	Int      int64
	Str      string
	Children []*Pat
}

// IsVar reports whether p is a variable.
func (p *Pat) IsVar() bool { return p.Var != "" }

// Parse compiles an S-expression pattern like
//
//	(matmul ?act ?x (concat2 1 ?y ?z))
//
// Atoms starting with '?' are variables; bare integers are OpInt
// literals; quoted strings are OpStr literals; (input "name@shape")
// and (weight "name@shape") are identifier literals.
func Parse(src string) (*Pat, error) {
	e, err := sexpr.Parse(src)
	if err != nil {
		return nil, err
	}
	return fromExpr(e)
}

// MustParse is Parse that panics; for rule tables with known-good text.
func MustParse(src string) *Pat {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseMulti parses a whitespace-separated sequence of patterns (the
// source or target list of a multi-pattern rule).
func ParseMulti(src string) ([]*Pat, error) {
	es, err := sexpr.ParseMany(src)
	if err != nil {
		return nil, err
	}
	out := make([]*Pat, len(es))
	for i, e := range es {
		p, err := fromExpr(e)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func fromExpr(e *sexpr.Expr) (*Pat, error) {
	if e.IsAtom() {
		a := e.Atom
		if strings.HasPrefix(a, "?") {
			if len(a) == 1 {
				return nil, fmt.Errorf("pattern: bare '?' is not a variable name")
			}
			return &Pat{Var: a}, nil
		}
		if v, err := strconv.ParseInt(a, 10, 64); err == nil {
			return &Pat{Op: tensor.OpInt, Int: v}, nil
		}
		// Any other atom is a string literal (permutations, shapes).
		return &Pat{Op: tensor.OpStr, Str: a}, nil
	}
	if len(e.List) == 0 {
		return nil, fmt.Errorf("pattern: empty list")
	}
	head := e.List[0]
	if !head.IsAtom() {
		return nil, fmt.Errorf("pattern: list head must be an operator name, got %v", head)
	}
	op, ok := tensor.OpByName[head.Atom]
	if !ok {
		return nil, fmt.Errorf("pattern: unknown operator %q", head.Atom)
	}
	p := &Pat{Op: op}
	if op == tensor.OpInput || op == tensor.OpWeight {
		if len(e.List) != 2 || !e.List[1].IsAtom() {
			return nil, fmt.Errorf("pattern: %s wants a single identifier atom", head.Atom)
		}
		p.Str = e.List[1].Atom
		return p, nil
	}
	for _, c := range e.List[1:] {
		child, err := fromExpr(c)
		if err != nil {
			return nil, err
		}
		p.Children = append(p.Children, child)
	}
	if want := op.Arity(); want >= 0 && len(p.Children) != want {
		return nil, fmt.Errorf("pattern: %s expects %d children, got %d", head.Atom, want, len(p.Children))
	}
	return p, nil
}

// String renders the pattern back to S-expression syntax.
func (p *Pat) String() string {
	if p.IsVar() {
		return p.Var
	}
	switch p.Op {
	case tensor.OpInt:
		return strconv.FormatInt(p.Int, 10)
	case tensor.OpStr:
		return strconv.Quote(p.Str)
	case tensor.OpInput, tensor.OpWeight:
		return fmt.Sprintf("(%v %q)", p.Op, p.Str)
	}
	if len(p.Children) == 0 {
		return p.Op.String()
	}
	parts := make([]string, 0, len(p.Children)+1)
	parts = append(parts, p.Op.String())
	for _, c := range p.Children {
		parts = append(parts, c.String())
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Vars returns the pattern's variables in first-occurrence order.
func (p *Pat) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(*Pat)
	walk = func(q *Pat) {
		if q.IsVar() {
			if !seen[q.Var] {
				seen[q.Var] = true
				out = append(out, q.Var)
			}
			return
		}
		for _, c := range q.Children {
			walk(c)
		}
	}
	walk(p)
	return out
}

// Canonical renames the pattern's variables to ?0, ?1, ... in
// first-occurrence order, returning the renamed pattern and the map
// from canonical name back to the original (the "rename map" of
// Algorithm 1). Patterns that differ only by variable naming share a
// canonical form, so the single-pattern search runs once per form.
func (p *Pat) Canonical() (*Pat, map[string]string) {
	rename := make(map[string]string) // original -> canonical
	back := make(map[string]string)   // canonical -> original
	var walk func(*Pat) *Pat
	walk = func(q *Pat) *Pat {
		if q.IsVar() {
			c, ok := rename[q.Var]
			if !ok {
				c = "?" + strconv.Itoa(len(rename))
				rename[q.Var] = c
				back[c] = q.Var
			}
			return &Pat{Var: c}
		}
		out := &Pat{Op: q.Op, Int: q.Int, Str: q.Str}
		for _, ch := range q.Children {
			out.Children = append(out.Children, walk(ch))
		}
		return out
	}
	return walk(p), back
}

// Subst maps variable names to e-classes.
type Subst map[string]egraph.ClassID

// Clone copies a substitution.
func (s Subst) Clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Rename relabels s's keys through a canonical->original map, i.e. the
// DECANONICAL step of Algorithm 1.
func (s Subst) Rename(back map[string]string) Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		name, ok := back[k]
		if !ok {
			name = k
		}
		out[name] = v
	}
	return out
}

// String renders the substitution deterministically for tests/logs.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=e%d", k, s[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Match is one occurrence of a pattern: the e-class whose node matched
// the pattern root, plus the variable bindings.
type Match struct {
	Class egraph.ClassID
	Subst Subst
}

// SearchView finds all matches of p in a frozen e-graph view, scanning
// classes in ascending ID order. Bindings are canonicalized class ids.
// Like SearchClasses it runs the compiled engine (compile.go); callers
// matching the same pattern repeatedly should Compile once and use
// Program.AppendMatches directly.
func SearchView(v *egraph.View, p *Pat) []Match {
	return SearchClasses(v, p, v.Classes())
}

// SearchClasses finds matches of p rooted at each class of classes, in
// order. Shards of View.Classes can be searched concurrently — one
// SearchClasses call per goroutine — and concatenated in shard order
// to reproduce the sequential result exactly.
func SearchClasses(v *egraph.View, p *Pat, classes []*egraph.Class) []Match {
	prog := Compile(p)
	var ms Matches
	prog.AppendMatches(&ms, v, classes)
	if ms.Len() == 0 {
		return nil
	}
	out := make([]Match, ms.Len())
	for i := range out {
		out[i] = Match{Class: ms.Roots[i], Subst: prog.Subst(ms.Bind(i))}
	}
	return out
}
