package mobirescue

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fieldAllowlist names the struct fields that no production code reads
// but that stay, each with the test that reads them. Keys use the names
// TestEveryFieldIsRead reports.
var fieldAllowlist = map[string]string{
	"core.PredictProvider.storm": "PredictReference, the oracle TestPredictMatchesReference and the tests after it pin the fast path against",
	"flood.RoadState.At":         "TestHistoryWindow and core's TestBuildScenarioShape check that snapshots clamp to the history's window",
	"mobility.Trip.PersonID":     "TestGenerateTripsCollapseDuringDisaster groups trips by the traveller's home region",
	"mobility.Trip.FromLM":       "TestGenerateTripsAreRoutable checks that a route starts at its origin",
	"mobility.Trip.ToLM":         "TestGenerateTripsAreRoutable checks that a route ends at its destination",
	"roadnet.Route.Time":         "TestRouteToSegmentEnd and TestRouteToSameSegment; sim's greedyDisp test dispatcher picks the quickest request by it",
}

// encoders are the functions whose argument's fields reflection reads.
var encoders = map[string]bool{
	"encoding/json.Marshal":           true,
	"encoding/json.MarshalIndent":     true,
	"(*encoding/json.Encoder).Encode": true,
	"(*encoding/gob.Encoder).Encode":  true,
}

// TestEveryFieldIsRead fails on any struct field of a module non-test
// file that nothing reads. A field counts as read when a non-test file
// of the module or of the benchmark module (bench/) reads it through a
// selector (the target of a plain = assignment, an ++ or -- operand and
// a composite literal key are writes; x.f += y reads x.f); when it has a
// json: tag; or when its struct
// type reaches an argument of json.Marshal, json.MarshalIndent or an
// Encode method of a json or gob Encoder through fields, pointers,
// slices, arrays or maps. Embedded fields are not checked: they exist
// to promote. Fields that stay unread are listed, with the test that
// reads each, in fieldAllowlist; the test also fails on an entry that is
// read or no longer exists.
func TestEveryFieldIsRead(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}

	fields := map[*types.Var]string{} // declared field -> key
	pos := map[*types.Var]token.Position{}
	read := map[*types.Var]bool{}
	encoded := map[types.Type]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			if !p.bench {
				declaredFields(fset, f, p.info, fields, pos, read)
			}
			readFields(f, p.info, read, encoded)
		}
	}

	found := map[string]bool{}
	var unread []string
	for v, key := range fields {
		found[key] = true
		_, allowed := fieldAllowlist[key]
		switch {
		case allowed && read[v]:
			t.Errorf("allowlist entry %s is read in production; delete the entry", key)
		case !allowed && !read[v]:
			rel, err := filepath.Rel(root, pos[v].Filename)
			if err != nil {
				rel = pos[v].Filename
			}
			unread = append(unread, fmt.Sprintf("%s:%d %s", rel, pos[v].Line, key))
		}
	}
	for key := range fieldAllowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s names no field; delete the entry", key)
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d fields are never read; delete them, or allowlist each with the test that reads it:\n%s",
			len(unread), strings.Join(unread, "\n"))
	}
}

// declaredFields records the named fields of every struct type in f,
// keyed pkg.Type.field (a struct type that is not a declared type's
// own is named struct@file:line). A field with a json: tag is read.
func declaredFields(fset *token.FileSet, f *ast.File, info *types.Info, fields map[*types.Var]string, pos map[*types.Var]token.Position, read map[*types.Var]bool) {
	named := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				named[st] = n.Name.Name
			}
		case *ast.StructType:
			owner, ok := named[n]
			if !ok {
				p := fset.Position(n.Pos())
				owner = fmt.Sprintf("struct@%s:%d", filepath.Base(p.Filename), p.Line)
			}
			for _, fld := range n.Fields.List {
				tagged := fld.Tag != nil && reflect.StructTag(strings.Trim(fld.Tag.Value, "`")).Get("json") != ""
				for _, name := range fld.Names {
					v := info.Defs[name].(*types.Var)
					pkg := strings.TrimPrefix(strings.TrimPrefix(v.Pkg().Path(), modulePath+"/"), "internal/")
					fields[v] = pkg + "." + owner + "." + name.Name
					pos[v] = fset.Position(name.Pos())
					if tagged {
						read[v] = true
					}
				}
			}
		}
		return true
	})
}

// readFields marks the fields f reads through a selector, and every
// field of the types f hands to an encoder. ast.Inspect visits a
// statement before its operands, so a write target is known before its
// selector is.
func readFields(f *ast.File, info *types.Info, read map[*types.Var]bool, encoded map[types.Type]bool) {
	writes := map[*ast.SelectorExpr]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CallExpr:
			if fn, ok := callee(info, n).(*types.Func); ok && encoders[fn.FullName()] && len(n.Args) > 0 {
				markEncoded(info.Types[n.Args[0]].Type, read, encoded)
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !writes[n] {
				read[s.Obj().(*types.Var).Origin()] = true
			}
		}
		return true
	})
}

// callee returns the function or method a call names, or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if s := info.Selections[fn]; s != nil {
			return s.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// markEncoded marks every field reachable from t as read.
func markEncoded(t types.Type, read map[*types.Var]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		markEncoded(u.Elem(), read, seen)
	case *types.Slice:
		markEncoded(u.Elem(), read, seen)
	case *types.Array:
		markEncoded(u.Elem(), read, seen)
	case *types.Map:
		markEncoded(u.Key(), read, seen)
		markEncoded(u.Elem(), read, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			read[fld.Origin()] = true
			markEncoded(fld.Type(), read, seen)
		}
	}
}
