package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fieldAllowlist names the exported fields under tensat/internal/...
// that non-test code reads but never writes and that stay exported,
// each with its reason.
var fieldAllowlist = map[string]string{
	"tensat/internal/cluster.Config.BaseURL":    "lets the serve and cluster tests substitute a fake peer",
	"tensat/internal/rewrite.Stats.SearchClean": "deprecated, always 0: bench/pipeline.go reads it until that file next changes",
	"tensat/internal/rewrite.Stats.SearchDirty": "deprecated, always 0: bench/pipeline.go reads it until that file next changes",
}

// TestNoUnsetFields loads the whole module with bench/ as a caller and
// fails on any exported field of an exported struct type under
// tensat/internal/... that non-test code reads but never writes: a
// setting nothing sets is a constant with a knob on it. A write is a
// keyed or positional composite literal, an assignment, ++ or --, or
// taking the field's address; a field with a json tag counts as
// written by encoding/json.
func TestNoUnsetFields(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	type use struct {
		name          string
		read, written bool
	}
	fields := map[*types.Var]*use{}
	var order []*types.Var
	for _, pkg := range prog.Packages {
		if !strings.HasPrefix(pkg.PkgPath, "tensat/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					ts := s.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							v, _ := pkg.Info.Defs[name].(*types.Var)
							if v == nil || !v.Exported() {
								continue
							}
							fields[v] = &use{name: pkg.PkgPath + "." + ts.Name.Name + "." + v.Name(), written: jsonTagged(fl.Tag)}
							order = append(order, v)
						}
					}
				}
			}
		}
	}

	for _, pkg := range prog.Packages {
		info := pkg.Info
		mark := func(obj types.Object, write bool) {
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			if u := fields[v.Origin()]; u != nil {
				u.read = u.read || !write
				u.written = u.written || write
			}
		}
		markWrite := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj(), true)
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							mark(info.Uses[kv.Key.(*ast.Ident)], true)
						} else {
							mark(st.Field(i), true)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markWrite(lhs)
					}
				case *ast.IncDecStmt:
					markWrite(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markWrite(n.X)
					}
				case *ast.SelectorExpr:
					if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
						mark(s.Obj(), false)
					}
				}
				return true
			})
		}
	}

	var unset []string
	allowed := map[string]bool{}
	for _, v := range order {
		u := fields[v]
		if !u.read || u.written {
			continue
		}
		if _, ok := fieldAllowlist[u.name]; ok {
			allowed[u.name] = true
			continue
		}
		unset = append(unset, u.name)
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is read but no non-test code sets it: make it a constant or unexport it", name)
	}
	for name := range fieldAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s names no field that is read but never set", name)
		}
	}
}

// jsonTagged reports whether a struct field carries a json tag.
func jsonTagged(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	s, err := strconv.Unquote(tag.Value)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(s).Lookup("json")
	return ok
}
