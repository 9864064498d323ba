// Package cachekey implements the tensatlint analyzer enforcing
// cache-key completeness: every exported field of an options struct
// annotated //lint:cachekey must be read by one of the struct's
// declared key functions (or by a same-package function they call),
// or carry an explicit //lint:cachekey-exempt exemption. The serving
// layer's result cache is keyed by a canonical encoding of the
// effective options; a knob that influences results but never joins
// the key silently aliases cache entries — the bug class this
// repository shipped (and re-fixed) three times before this analyzer.
package cachekey

import (
	"go/ast"
	"go/types"
	"strings"

	"tensat/internal/analysis"
)

// Analyzer is the cachekey invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "cachekey",
	Doc: "check that every exported field of a //lint:cachekey struct flows into " +
		"its declared key functions or is //lint:cachekey-exempt",
	Run: run,
}

// required lists structs that MUST carry the //lint:cachekey
// directive, so deleting the annotation (or renaming the struct) can
// never silently disable the check. Maps package path to type names.
var required = map[string][]string{
	"tensat":                {"Options"},
	"tensat/internal/serve": {"RequestOptions"},
}

func run(pass *analysis.Pass) error {
	annotated := make(map[string]bool)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				args, ok := analysis.CommentDirective(doc, "cachekey")
				if !ok {
					continue
				}
				annotated[ts.Name.Name] = true
				checkStruct(pass, ts, args)
			}
		}
	}
	for _, name := range required[pass.Pkg.PkgPath] {
		if !annotated[name] {
			if obj := pass.Pkg.Types.Scope().Lookup(name); obj != nil {
				pass.Reportf(obj.Pos(), "%s.%s is a cache-key struct and must carry a //lint:cachekey directive naming its key functions", pass.Pkg.PkgPath, name)
			}
		}
	}
	return nil
}

// checkStruct verifies one annotated struct. The directive arguments
// name the key functions, each as keyfunc=<pkgpath>.<func> or
// keyfunc=<pkgpath>.<Type>.<method>.
func checkStruct(pass *analysis.Pass, ts *ast.TypeSpec, args string) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		pass.Reportf(ts.Pos(), "//lint:cachekey directive on non-struct type %s", ts.Name.Name)
		return
	}
	obj, ok := pass.Pkg.Info.Defs[ts.Name]
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}

	var keyFuncs []*keyFunc
	var keyNames []string
	for _, field := range strings.Fields(args) {
		spec, ok := strings.CutPrefix(field, "keyfunc=")
		if !ok {
			pass.Reportf(ts.Pos(), "//lint:cachekey: unknown directive argument %q (want keyfunc=<pkgpath>.<func>)", field)
			return
		}
		kf := resolveKeyFunc(pass, spec)
		if kf == nil {
			pass.Reportf(ts.Pos(), "//lint:cachekey: key function %q not found — update the directive when renaming key functions", spec)
			return
		}
		keyFuncs = append(keyFuncs, kf)
		keyNames = append(keyNames, spec[strings.LastIndex(spec, "/")+1:])
	}
	if len(keyFuncs) == 0 {
		pass.Reportf(ts.Pos(), "//lint:cachekey on %s names no key functions (want keyfunc=<pkgpath>.<func>)", ts.Name.Name)
		return
	}

	read := make(map[string]bool)
	for _, kf := range keyFuncs {
		collectFieldReads(kf.pkg, kf.decl, named, read)
	}

	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !name.IsExported() || read[name.Name] {
				continue
			}
			if reason, ok := exemption(pass, field, name); ok {
				if reason == "" {
					pass.Reportf(name.Pos(), "//lint:cachekey-exempt on %s.%s needs a reason (why is this knob not part of result identity?)", ts.Name.Name, name.Name)
				}
				continue
			}
			pass.Reportf(name.Pos(),
				"field %s.%s does not flow into any key function (%s) and is not //lint:cachekey-exempt: a knob that influences results but skips the cache key aliases cache entries",
				ts.Name.Name, name.Name, strings.Join(keyNames, ", "))
		}
	}
}

// exemption looks for //lint:cachekey-exempt on the field's doc or
// trailing line comment.
func exemption(pass *analysis.Pass, field *ast.Field, name *ast.Ident) (string, bool) {
	if r, ok := analysis.CommentDirective(field.Doc, "cachekey-exempt"); ok {
		return r, true
	}
	if r, ok := analysis.CommentDirective(field.Comment, "cachekey-exempt"); ok {
		return r, true
	}
	return pass.Pkg.LineDirective(name.Pos(), "cachekey-exempt")
}

type keyFunc struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
}

// resolveKeyFunc finds the declaration of a keyfunc=<spec> target
// anywhere in the loaded program.
func resolveKeyFunc(pass *analysis.Pass, spec string) *keyFunc {
	for _, pkg := range pass.Prog.Packages {
		rest, ok := strings.CutPrefix(spec, pkg.PkgPath+".")
		if !ok {
			continue
		}
		recv, name, hasRecv := strings.Cut(rest, ".")
		if !hasRecv {
			name, recv = rest, ""
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != name {
					continue
				}
				if recv != "" && receiverTypeName(fd) != recv {
					continue
				}
				if recv == "" && fd.Recv != nil {
					continue
				}
				return &keyFunc{pkg: pkg, decl: fd}
			}
		}
	}
	return nil
}

func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// collectFieldReads records every field of `target` selected inside
// decl or inside same-package functions it (transitively) calls.
func collectFieldReads(pkg *analysis.Package, decl *ast.FuncDecl, target *types.Named, read map[string]bool) {
	index := funcDecls(pkg)
	seen := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if fd == nil || seen[fd] || fd.Body == nil {
			return
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := pkg.Info.Selections[n]
				if ok && sel.Kind() == types.FieldVal && sameNamed(sel.Recv(), target) {
					read[n.Sel.Name] = true
				}
			case *ast.CallExpr:
				if callee := calleeFunc(pkg, n); callee != nil {
					visit(index[callee])
				}
			}
			return true
		})
	}
	visit(decl)
}

// funcDecls maps each function object declared in pkg to its decl.
func funcDecls(pkg *analysis.Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// calleeFunc resolves a call to a same-package function object.
func calleeFunc(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != pkg.Types {
		return nil
	}
	return fn
}

// sameNamed reports whether t (possibly a pointer) is the named type.
func sameNamed(t types.Type, target *types.Named) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == target.Obj()
}
