package analysis_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"tensat/internal/analysis"
)

// exportAllowlist names the exports under tensat/internal/... that
// only tests reference and that stay exported, each with its reason.
var exportAllowlist = map[string]string{
	// Oracles and builders that other packages' tests share; a
	// _test.go file cannot export across packages.
	"tensat/internal/egraph.EGraph.Dump":             "cross-package test oracle",
	"tensat/internal/egraph.Leaf":                    "cross-package test helper",
	"tensat/internal/egraph.IntNode":                 "cross-package test helper",
	"tensat/internal/egraph.StrNode":                 "cross-package test helper",
	"tensat/internal/egraph.NewNode":                 "cross-package test helper",
	"tensat/internal/pattern.MustParse":              "cross-package test helper",
	"tensat/internal/pattern.ReferenceSearchClasses": "cross-package test oracle",
	"tensat/internal/fault.Reset":                    "cross-package test helper",
}

// allowedPackages are whole packages the check skips.
var allowedPackages = map[string]string{
	"tensat/internal/analysis/analysistest": "the analyzers' test driver; only tests import it",
}

// loadModule loads the whole module with bench/ as a caller, once for
// every whole-program check in this package.
var loadModule = sync.OnceValues(func() (*analysis.Program, error) {
	return analysis.Load("../../bench", "./...", "tensat/...")
})

// reexported are the types the root package re-exports by alias: their
// methods are public API whether or not the module calls them.
var reexported = map[string]bool{
	"tensat/internal/tensor.Graph":   true,
	"tensat/internal/tensor.Node":    true,
	"tensat/internal/tensor.Builder": true,
	"tensat/internal/tensor.Shape":   true,
	"tensat/internal/rewrite.Rule":   true,
	"tensat/internal/cost.Model":     true,
}

// TestNoTestOnlyExports loads the whole module with bench/ as a caller
// and fails on any exported package-level func, method, type, var or
// const under tensat/internal/..., interface methods included, that no
// non-test file references outside its own declaration. A call through
// an interface names the interface's method, so a concrete method that
// satisfies a standard-library interface is skipped, and so is one that
// satisfies an interface non-test code converts its type to.
func TestNoTestOnlyExports(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	// decl maps each candidate to the extent of its own declaration.
	type extent struct{ pos, end int }
	decl := map[types.Object]extent{}
	var order []types.Object
	add := func(obj types.Object, n ast.Node) {
		if obj == nil || !obj.Exported() {
			return
		}
		decl[obj] = extent{int(n.Pos()), int(n.End())}
		order = append(order, obj)
	}
	for _, pkg := range prog.Packages {
		if !strings.HasPrefix(pkg.PkgPath, "tensat/internal/") || allowedPackages[pkg.PkgPath] != "" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil || d.Recv != nil && !receiverExported(fn) {
						continue
					}
					add(fn, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(pkg.Info.Defs[s.Name], s)
							if it, ok := s.Type.(*ast.InterfaceType); ok && s.Name.IsExported() {
								for _, m := range it.Methods.List {
									for _, name := range m.Names {
										add(pkg.Info.Defs[name], m)
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(pkg.Info.Defs[name], s)
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			obj = origin(obj)
			if e, ok := decl[obj]; ok && (int(id.Pos()) < e.pos || int(id.Pos()) >= e.end) {
				used[obj] = true
			}
		}
	}

	ifaces, converted := interfaces(prog), conversions(prog)
	// An interface non-test code converts to counts even when no module
	// package imports its package (flag.TextVar takes an
	// encoding.TextUnmarshaler).
	for pair := range converted {
		ifaces = append(ifaces, pair[1].Type().(*types.Named))
	}
	var unused []string
	allowed := map[string]bool{}
	for _, obj := range order {
		if used[obj] {
			continue
		}
		name := qualified(obj)
		if _, ok := exportAllowlist[name]; ok {
			allowed[name] = true
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := namedRecv(fn); recv != nil && (reexported[recv.Obj().Pkg().Path()+"."+recv.Obj().Name()] ||
				!types.IsInterface(recv) && satisfiesInterface(recv, fn, ifaces, converted)) {
				continue
			}
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but no non-test file references it", name)
	}
	for name := range exportAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s names no export that only tests reference", name)
		}
	}
}

// origin maps an instantiated generic func or type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return n.Origin().Obj()
		}
	}
	return obj
}

// namedRecv returns a method's receiver type, nil for a plain func.
func namedRecv(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// receiverExported reports whether a method's receiver type is
// exported: methods of unexported types are not reachable by name.
func receiverExported(fn *types.Func) bool {
	n := namedRecv(fn)
	return n != nil && n.Obj().Exported()
}

// qualified spells obj as pkgpath.Name or pkgpath.Type.Method.
func qualified(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if n := namedRecv(fn); n != nil {
			return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaces collects the named interface types the program and its
// direct imports declare, plus error.
func interfaces(prog *analysis.Program) []*types.Named {
	seen := map[*types.Package]bool{}
	out := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	scan := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && types.IsInterface(n) {
					out = append(out, n)
				}
			}
		}
	}
	for _, pkg := range prog.Packages {
		scan(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			scan(imp)
		}
	}
	return out
}

// inModule reports whether n is declared in this module.
func inModule(n *types.Named) bool {
	pkg := n.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "tensat" || strings.HasPrefix(pkg.Path(), "tensat/"))
}

// satisfiesInterface reports whether fn is the method by which recv (or
// a pointer to it) implements one of ifaces. An interface of this
// module counts only when non-test code converts recv to it; one from
// the standard library counts always, since the conversion that reaches
// it may hide behind any (fmt, encoding/json).
func satisfiesInterface(recv *types.Named, fn *types.Func, ifaces []*types.Named, converted map[[2]*types.TypeName]bool) bool {
	for _, n := range ifaces {
		it := n.Underlying().(*types.Interface)
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == fn.Name()
		}
		if !has || !types.Implements(recv, it) && !types.Implements(types.NewPointer(recv), it) {
			continue
		}
		if !inModule(n) || converted[[2]*types.TypeName{recv.Obj(), n.Obj()}] {
			return true
		}
	}
	return false
}

// conversions records each (concrete type, named interface) pair that
// non-test code converts between, implicitly or explicitly: call
// arguments, assignments, declarations, returns, composite literal
// elements and channel sends.
func conversions(prog *analysis.Program) map[[2]*types.TypeName]bool {
	out := map[[2]*types.TypeName]bool{}
	for _, pkg := range prog.Packages {
		info := pkg.Info
		note := func(e ast.Expr, target types.Type) {
			to, ok := types.Unalias(target).(*types.Named)
			if !ok || !types.IsInterface(to) {
				return
			}
			from := info.TypeOf(e)
			if p, ok := from.(*types.Pointer); ok {
				from = p.Elem()
			}
			if n, ok := types.Unalias(from).(*types.Named); ok && !types.IsInterface(n) {
				out[[2]*types.TypeName{n.Origin().Obj(), to.Obj()}] = true
			}
		}
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CallExpr:
					tv := info.Types[n.Fun]
					if tv.IsType() && len(n.Args) == 1 {
						note(n.Args[0], tv.Type)
						break
					}
					sig, ok := tv.Type.Underlying().(*types.Signature)
					if !ok {
						break
					}
					for i, arg := range n.Args {
						switch params := sig.Params(); {
						case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
							note(arg, params.At(params.Len()-1).Type().(*types.Slice).Elem())
						case i < params.Len():
							note(arg, params.At(i).Type())
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							note(n.Rhs[i], info.TypeOf(n.Lhs[i]))
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, v := range n.Values {
							note(v, info.TypeOf(n.Type))
						}
					}
				case *ast.ReturnStmt:
					if sig := enclosingSig(info, stack); sig != nil && sig.Results().Len() == len(n.Results) {
						for i, r := range n.Results {
							note(r, sig.Results().At(i).Type())
						}
					}
				case *ast.CompositeLit:
					noteElems(info, n, note)
				case *ast.SendStmt:
					if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						note(n.Value, ch.Elem())
					}
				}
				return true
			})
		}
	}
	return out
}

// enclosingSig returns the signature of the innermost function on stack.
func enclosingSig(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return info.TypeOf(fn).(*types.Signature)
		case *ast.FuncDecl:
			return info.Defs[fn.Name].Type().(*types.Signature)
		}
	}
	return nil
}

// noteElems passes each element of a composite literal to note with
// the type the literal gives it.
func noteElems(info *types.Info, lit *ast.CompositeLit, note func(ast.Expr, types.Type)) {
	switch t := info.TypeOf(lit).Underlying().(type) {
	case *types.Struct:
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if field, ok := info.Uses[kv.Key.(*ast.Ident)]; ok {
					note(kv.Value, field.Type())
				}
			} else if i < t.NumFields() {
				note(el, t.Field(i).Type())
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		elem := t.(interface{ Elem() types.Type }).Elem()
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if m, ok := t.(*types.Map); ok {
					note(kv.Key, m.Key())
				}
				el = kv.Value
			}
			note(el, elem)
		}
	}
}
