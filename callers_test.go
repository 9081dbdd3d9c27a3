package mobirescue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the package-level declarations that no
// production root reaches but that stay, each with the reason it stays.
// Keys use the names TestEveryDeclarationHasACaller reports.
var callerAllowlist = map[string]string{
	// Reference implementations the fast paths are pinned against.
	"svm.(*Model).DecisionReference":   "the prediction oracle: svm's TestFastDecisionMatchesReference and core's TestPredictPerson call it",
	"roadnet.(*Graph).NearestSegment":  "linear-scan reference for SegmentIndex (segindex_test.go)",
	"roadnet.(*Graph).NearestLandmark": "linear-scan reference for SpatialIndex (TestLandmarkIndexMatchesLinearScan)",
	"weather.FactorsAt":                "reference for FactorIndex's zero-lookback path (TestFactorIndexFallback)",
	"sim.(*Result).RewardPerHour":      "the Eq. 5 reward that TestGoldenReplay pins",
	"core.(*System).RunDispatcher":     "the hook BenchmarkAblationIPLatency uses (EXPERIMENTS \"Ablations\")",

	// Test doubles other packages' tests use.
	"sim.StaticCost": "fixed cost model for the sim, chaos and serve tests",
	"weather.Calm":   "storm-free field for the flood tests and core's TestPredictReuseCounted",

	// Accessors of at most four lines that a test reads.
	"chaos.(*Injector).NumSurges":      "TestInjectorSchedulesDeterministic",
	"core.(*PredictProvider).CacheLen": "TestPredictCacheEviction",
	"core.(*PredictProvider).Source":   "TestPredictPerson and TestProvidersShareDatasetTraces",
	"dispatch.(*Resilient).LastError":  "TestResilientRecoversPanics and the other resilient tests",
	"mobility.(*Streamer).ID":          "TestStreamerSourceContract and core's TestPredictMovingPeopleMemos",
	"rl.(*DQN).Steps":                  "TestMobiRescueTrainingObserves",
	"serve.(*Session).ID":              "the handle serve's and core's session tests close and get sessions by",
	"sim.(*Simulator).Run":             "the context-free entry point the sim, chaos, dispatch, eventlog and analyze tests call",
	"tsa.(*Predictor).Keys":            "TestObserveAccumulates",
}

// stdInterfaceMethods are the method names of the standard interfaces
// that reflection or the runtime calls on a value the program hands
// over: error (and the errors.Is/As/Unwrap hooks), fmt.Stringer, the
// JSON, gob, text and binary marshalers, sort.Interface,
// container/heap, the io readers, writers and closers, slog.Handler,
// http.Handler, flag.Value and rand.Source.
var stdInterfaceMethods = []string{
	"Error", "Unwrap", "Is", "As",
	"String",
	"MarshalJSON", "UnmarshalJSON", "GobEncode", "GobDecode",
	"MarshalText", "UnmarshalText", "MarshalBinary", "UnmarshalBinary",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close", "ReadFrom", "WriteTo",
	"Enabled", "Handle", "WithAttrs", "WithGroup",
	"ServeHTTP",
	"Set",
	"Int63", "Seed", "Uint64",
}

const modulePath = "mobirescue"

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// callDecl is one package-level declaration (or a root pseudo-declaration)
// with what its source refers to.
type callDecl struct {
	obj   types.Object // nil for a root pseudo-declaration
	pos   token.Position
	uses  []types.Object // package-level objects and methods named in the body
	calls []*types.Func  // module interface methods the body calls
	group []types.Object // the other constants of its iota block
}

// callGraph is the reference graph over every package-level declaration
// of the module's non-test files.
type callGraph struct {
	fset    *token.FileSet
	decls   map[types.Object]*callDecl
	roots   []*callDecl
	methods map[*types.TypeName][]*types.Func // declared methods by receiver
	byName  map[string][]*types.Func          // declared methods by name
}

// TestEveryDeclarationHasACaller fails on any package-level declaration
// of a non-test file that no production root reaches. The roots are
// main of every command, every init function and package-level var
// initializer, and every module object the benchmark module (bench/)
// uses, in its tests too. An identifier used in a declaration is an
// edge; a reached method reaches its receiver type; a reached type
// reaches each of its methods that reached code calls through one of
// the module's interfaces that the type, or a pointer to it,
// implements, or that a standard interface names which reflection or
// the runtime calls (stdInterfaceMethods). Declaring an
// interface method calls nothing. The constants of an iota block are
// reached together, and a blank `var _ I = T{}` assertion is not a
// root. Declarations that stay without a caller are listed, with their
// reasons, in callerAllowlist; the test also fails on an entry that is
// reached or no longer exists.
func TestEveryDeclarationHasACaller(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadCallGraph(root)
	if err != nil {
		t.Fatal(err)
	}

	// An allowlist entry must have no production caller; what the
	// entries themselves use is then reached through them.
	found := map[string]bool{}
	prod := g.reach(nil)
	var allowed []types.Object
	for obj := range g.decls {
		key := declKey(obj)
		found[key] = true
		if _, ok := callerAllowlist[key]; !ok {
			continue
		}
		if prod[obj] {
			t.Errorf("allowlist entry %s has a production caller; delete the entry", key)
		}
		allowed = append(allowed, obj)
	}
	for key := range callerAllowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s names no declaration; delete the entry", key)
		}
	}

	reached := g.reach(allowed)
	var unreached []string
	for obj, d := range g.decls {
		if reached[obj] {
			continue
		}
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		unreached = append(unreached, fmt.Sprintf("%s:%d %s", rel, d.pos.Line, declKey(obj)))
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Errorf("%d declarations have no production caller; delete them, or allowlist each with a reason:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
}

// modulePackage is one type-checked package of non-test files.
type modulePackage struct {
	files   []*ast.File
	info    *types.Info
	command bool // a command's main package
	bench   bool // the benchmark module, which is frozen
}

// loadModule type-checks the module's non-test files (standard packages
// come from `go list -export` data) and the benchmark module's files,
// its tests included, against them, dependencies first.
func loadModule(root string) (*token.FileSet, []*modulePackage, error) {
	fset := token.NewFileSet()
	benchDir := filepath.Join(root, "bench")
	benchFiles, err := filepath.Glob(filepath.Join(benchDir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	for i, f := range benchFiles {
		benchFiles[i] = filepath.Base(f)
	}
	bench, err := parseFiles(fset, benchDir, benchFiles)
	if err != nil {
		return nil, nil, err
	}
	// The benchmark's tests import packages (testing) that the module's
	// own files may not; list them too so their export data is at hand.
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard", "./..."}
	for _, f := range bench {
		for _, imp := range f.Imports {
			args = append(args, strings.Trim(imp.Path.Value, `"`))
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var pkgs []*modulePackage
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}

	// -deps lists every package after its dependencies.
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		info := newInfo()
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, &modulePackage{
			files: files, info: info,
			command: p.Name == "main" && strings.HasPrefix(p.ImportPath, modulePath+"/cmd/"),
		})
	}

	info := newInfo()
	if _, err := conf.Check(modulePath+"/bench", fset, bench, info); err != nil {
		return nil, nil, fmt.Errorf("type-checking bench: %v", err)
	}
	pkgs = append(pkgs, &modulePackage{files: bench, info: info, bench: true})
	return fset, pkgs, nil
}

// loadCallGraph builds the reference graph over the loaded module.
func loadCallGraph(root string) (*callGraph, error) {
	fset, pkgs, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	g := &callGraph{
		fset:    fset,
		decls:   map[types.Object]*callDecl{},
		methods: map[*types.TypeName][]*types.Func{},
		byName:  map[string][]*types.Func{},
	}
	for _, p := range pkgs {
		if !p.bench {
			g.addPackage(p.files, p.info, p.command)
			continue
		}
		// The benchmark module is frozen: everything it uses is a root.
		for _, f := range p.files {
			g.roots = append(g.roots, g.collect(f, p.info))
		}
	}
	return g, nil
}

// addPackage records one package's declarations and roots.
func (g *callGraph) addPackage(files []*ast.File, info *types.Info, isCommand bool) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				cd := g.collect(d, info)
				cd.obj, cd.pos = fn, g.fset.Position(d.Name.Pos())
				g.decls[fn] = cd
				if d.Recv != nil {
					if tn := recvTypeName(fn); tn != nil {
						g.methods[tn] = append(g.methods[tn], fn)
						g.byName[fn.Name()] = append(g.byName[fn.Name()], fn)
					}
					continue
				}
				if d.Name.Name == "init" || (isCommand && d.Name.Name == "main") {
					g.roots = append(g.roots, cd)
				}
			case *ast.GenDecl:
				g.addGenDecl(d, info)
			}
		}
	}
}

func (g *callGraph) addGenDecl(d *ast.GenDecl, info *types.Info) {
	var block []*callDecl
	hasIota := false
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			cd := g.collect(s, info)
			cd.obj, cd.pos = info.Defs[s.Name], g.fset.Position(s.Name.Pos())
			g.decls[cd.obj] = cd
		case *ast.ValueSpec:
			for _, v := range s.Values {
				ast.Inspect(v, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
						hasIota = true
					}
					return true
				})
			}
			if d.Tok == token.VAR && len(s.Values) > 0 && !allBlank(s.Names) {
				// The initializer runs at program start.
				initRoot := &callDecl{}
				for _, v := range s.Values {
					sub := g.collect(v, info)
					initRoot.uses = append(initRoot.uses, sub.uses...)
					initRoot.calls = append(initRoot.calls, sub.calls...)
				}
				g.roots = append(g.roots, initRoot)
			}
			for _, name := range s.Names {
				if name.Name == "_" {
					continue
				}
				cd := g.collect(s, info)
				cd.obj, cd.pos = info.Defs[name], g.fset.Position(name.Pos())
				g.decls[cd.obj] = cd
				block = append(block, cd)
			}
		}
	}
	if d.Tok == token.CONST && hasIota {
		var objs []types.Object
		for _, cd := range block {
			objs = append(objs, cd.obj)
		}
		for _, cd := range block {
			cd.group = objs
		}
	}
}

// collect gathers the package-level objects a syntax tree refers to and
// the names of the module interface methods it calls.
func (g *callGraph) collect(n ast.Node, info *types.Info) *callDecl {
	cd := &callDecl{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					// A call through one of the module's interfaces is
					// recorded; a call through a standard one (ctx.Err)
					// reaches no module method unless stdInterfaceMethods
					// lists it.
					if inModule(fn.Pkg()) {
						cd.calls = append(cd.calls, fn)
					}
					return true
				}
				obj = fn
			}
			if v, ok := obj.(*types.Var); ok {
				obj = v.Origin()
			}
			cd.uses = append(cd.uses, obj)
		}
		return true
	})
	return cd
}

// reach returns the declarations that the roots and extra reach.
func (g *callGraph) reach(extra []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	std := map[string]bool{}
	for _, n := range stdInterfaceMethods {
		std[n] = true
	}
	called := map[string][]*types.Func{} // module interface methods called, by name
	var queue []*callDecl
	visit := func(obj types.Object) {
		if d, ok := g.decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			queue = append(queue, d)
		}
	}
	// callable reports whether a call already made reaches method m of
	// a reached type.
	callable := func(m *types.Func) bool {
		if std[m.Name()] {
			return true
		}
		for _, f := range called[m.Name()] {
			if implements(m, f) {
				return true
			}
		}
		return false
	}
	call := func(f *types.Func) {
		for _, prev := range called[f.Name()] {
			if prev == f {
				return
			}
		}
		called[f.Name()] = append(called[f.Name()], f)
		for _, m := range g.byName[f.Name()] {
			if reached[recvTypeName(m)] && implements(m, f) {
				visit(m)
			}
		}
	}
	for _, d := range g.roots {
		if d.obj != nil {
			reached[d.obj] = true
		}
		queue = append(queue, d)
	}
	for _, obj := range extra {
		visit(obj)
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, o := range d.group {
			visit(o)
		}
		for _, o := range d.uses {
			visit(o)
		}
		for _, f := range d.calls {
			call(f)
		}
		if tn, ok := d.obj.(*types.TypeName); ok {
			for _, m := range g.methods[tn] {
				if callable(m) {
					visit(m)
				}
			}
		}
	}
	return reached
}

// implements reports whether the type declaring method m, or a pointer
// to it, implements the interface that declares method f.
func implements(m, f *types.Func) bool {
	iface, ok := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	t := recvTypeName(m).Type()
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// declKey names a declaration as the test reports it: the package path
// below the module's internal/ (or the module root), then the name, with
// methods written as pkg.T.M or pkg.(*T).M.
func declKey(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/")
	pkg = strings.TrimPrefix(pkg, "internal/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if p, ok := recv.Type().(*types.Pointer); ok {
				return fmt.Sprintf("%s.(*%s).%s", pkg, p.Elem().(*types.Named).Obj().Name(), fn.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, recv.Type().(*types.Named).Obj().Name(), fn.Name())
		}
	}
	return pkg + "." + obj.Name()
}

// recvTypeName returns the named type a method is declared on.
func recvTypeName(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func allBlank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func inModule(p *types.Package) bool {
	return p.Path() == modulePath || strings.HasPrefix(p.Path(), modulePath+"/")
}
