// Package canonid implements the tensatlint analyzer enforcing e-graph
// ID canonicalization discipline: an expression used to index a class
// table must be canonical — produced by find/canonicalization (Find,
// Lookup), read from an already-canonical source (a Class.ID field, the
// keys of a ClassID-keyed map), or explicitly annotated
// //lint:canonical with a justification. A class table is a map whose
// key type is a ClassID, or a slice or array struct field whose
// declaration carries a //lint:classtable comment: the dense tables
// hold a class only at canonical ids, while tables that are indexed by
// raw ids on purpose (the union-find's parent array, a frozen find
// table) stay unmarked. IDs returned by Add and Union go stale after
// later unions; indexing a class table with a stale ID silently misses
// the class (reads) or resurrects a dead one (writes) — the
// hardest-to-reproduce bug class in an e-graph.
package canonid

import (
	"go/ast"
	"go/token"
	"go/types"

	"tensat/internal/analysis"
)

// Analyzer is the canonical-ID invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "canonid",
	Doc: "check that ClassID-keyed maps and //lint:classtable slices are only indexed with canonicalized IDs " +
		"(via Find, a Class.ID, a ClassID-keyed map key, or //lint:canonical)",
	Run: run,
}

// canonicalizers are the function/method names whose ClassID results
// are canonical by contract. Find/find/Lookup resolve to
// representatives; makeSet returns a freshly created root (its own
// representative by construction) and union returns the new root of
// the merged set.
var canonicalizers = map[string]bool{
	"Find":    true,
	"find":    true,
	"Lookup":  true,
	"makeSet": true,
	"union":   true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Parameters listed in a //lint:canonical directive on the function
	// declaration are trusted: the function's contract is that callers
	// pass canonical IDs.
	trusted := make(map[types.Object]bool)
	if args, ok := pass.Pkg.LineDirective(fd.Pos(), "canonical"); ok {
		for _, name := range fieldNames(args) {
			if obj := lookupParam(pass, fd, name); obj != nil {
				trusted[obj] = true
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if !isClassTable(pass, idx.X) {
			return true
		}
		if _, ok := pass.Pkg.LineDirective(idx.Pos(), "canonical"); ok {
			return true
		}
		if isCanonical(pass, fd, trusted, idx.Index, idx.Pos(), 0) {
			return true
		}
		pass.Reportf(idx.Index.Pos(),
			"class table indexed with a value not canonicalized through Find: stale IDs (from Add/Union before a Rebuild) silently miss or split e-classes; pass it through Find, or annotate the line //lint:canonical <why>")
		return true
	})
}

// isClassTable reports whether x, the operand of an index expression,
// is a class table: a map keyed by ClassID, or a slice or array field
// selected from a struct whose declaration is marked //lint:classtable.
func isClassTable(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[x]
	if !ok {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Map:
		return isClassID(t.Key())
	case *types.Slice, *types.Array:
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		field, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() || field.Pkg() == nil {
			return false
		}
		decl := pass.Pkg
		if field.Pkg() != pass.Pkg.Types {
			if decl, ok = pass.Prog.Package(field.Pkg().Path()); !ok {
				return false
			}
		}
		_, marked := decl.LineDirective(field.Pos(), "classtable")
		return marked
	}
	return false
}

// isClassID reports whether t is a named type called ClassID.
func isClassID(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "ClassID"
}

// isCanonical reports whether e is a canonical ClassID expression at
// position `use` inside fd.
func isCanonical(pass *analysis.Pass, fd *ast.FuncDecl, trusted map[types.Object]bool, e ast.Expr, use token.Pos, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return isCanonical(pass, fd, trusted, e.X, use, depth+1)
	case *ast.BasicLit:
		return true
	case *ast.CallExpr:
		// Canonicalizer results and explicit ClassID(...) conversions: a
		// conversion is a deliberate reinterpretation (e.g. enumerating
		// all slots 0..n), not an ID that aged across unions.
		switch fun := e.Fun.(type) {
		case *ast.SelectorExpr:
			if canonicalizers[fun.Sel.Name] {
				return true
			}
		case *ast.Ident:
			if canonicalizers[fun.Name] {
				return true
			}
			if obj := pass.Pkg.Info.Uses[fun]; obj != nil {
				if _, isType := obj.(*types.TypeName); isType {
					return true
				}
			}
		}
		return false
	case *ast.SelectorExpr:
		// A Class.ID field read is canonical: class objects come from
		// the canonical class table.
		return e.Sel.Name == "ID"
	case *ast.IndexExpr:
		// Reading the frozen canonicalization table (View.find and
		// friends) IS canonicalization: `v.find[id]` is the pure-lookup
		// equivalent of g.Find(id).
		if sel, ok := e.X.(*ast.SelectorExpr); ok && canonicalizers[sel.Sel.Name] {
			return true
		}
		if id, ok := e.X.(*ast.Ident); ok && canonicalizers[id.Name] {
			return true
		}
		return false
	case *ast.Ident:
		obj := pass.Pkg.Info.Uses[e]
		if obj == nil {
			return false
		}
		if trusted[obj] {
			return true
		}
		if def, ok := lastAssignment(pass, fd, obj, use); ok {
			switch d := def.(type) {
			case rangeKeyDef:
				return d.overCanonicalSource
			case exprDef:
				return isCanonical(pass, fd, trusted, d.rhs, d.pos, depth+1)
			}
		}
		return false
	}
	return false
}

type rangeKeyDef struct{ overCanonicalSource bool }
type exprDef struct {
	rhs ast.Expr
	pos token.Pos
}

// lastAssignment finds how obj was most recently defined before `use`:
// the latest assignment/definition lexically preceding the use. This
// is a linear approximation of real data flow — loops and goto can
// reorder execution — but e-graph code is straight-line enough that it
// holds, and the //lint:canonical escape hatch covers the rest.
func lastAssignment(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, use token.Pos) (any, bool) {
	var best any
	var bestPos token.Pos = token.NoPos
	consider := func(pos token.Pos, def any) {
		if pos < use && pos > bestPos {
			best, bestPos = def, pos
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || resolve(pass, id) != obj {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					consider(n.Pos(), exprDef{rhs: n.Rhs[i], pos: n.Pos()})
				} else {
					// Multi-value assignment (id, ok := g.Lookup(n)):
					// treat the whole RHS call as the definition.
					consider(n.Pos(), exprDef{rhs: n.Rhs[0], pos: n.Pos()})
				}
			}
		case *ast.RangeStmt:
			if id, ok := n.Key.(*ast.Ident); ok && resolve(pass, id) == obj {
				consider(n.Pos(), rangeKeyDef{overCanonicalSource: canonicalRangeSource(pass, n.X)})
			}
			if id, ok := n.Value.(*ast.Ident); ok && resolve(pass, id) == obj {
				// Range *values* of a ClassID container (e.g. node
				// children) are not canonical.
				consider(n.Pos(), rangeKeyDef{overCanonicalSource: false})
			}
		}
		return true
	})
	return best, bestPos != token.NoPos
}

func resolve(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Pkg.Info.Uses[id]
}

// canonicalRangeSource reports whether ranging over x yields canonical
// ClassIDs as keys: a map keyed by ClassID, or a call to Classes().
func canonicalRangeSource(pass *analysis.Pass, x ast.Expr) bool {
	if tv, ok := pass.Pkg.Info.Types[x]; ok {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok && isClassID(mt.Key()) {
			return true
		}
	}
	if call, ok := x.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Classes" {
			return true
		}
	}
	return false
}

func lookupParam(pass *analysis.Pass, fd *ast.FuncDecl, name string) types.Object {
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			if id.Name == name {
				return pass.Pkg.Info.Defs[id]
			}
		}
	}
	return nil
}

func fieldNames(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != ',' && s[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}
