package mobirescue

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// flagInventory lists every command-line flag declared under cmd/ and
// internal/cli, keyed "<dir> -<name>", with where a value other than
// its default is in use, or "path" or "address" for a deployment
// setting. A flag that only its default reaches is a constant.
var flagInventory = map[string]string{
	// Shared by cmd/mobirescue and cmd/experiments.
	"internal/cli -scale":           "EXPERIMENTS.md runs experiments -scale small; ROADMAP item 1 runs mobirescue at mid",
	"internal/cli -episodes":        "make eventlog-smoke runs -episodes 1; crashtest runs -episodes 8",
	"internal/cli -teams":           "EXPERIMENTS.md \"Fleet sizing\" restores the paper's literal rule with it; ROADMAP item 1 sweeps it",
	"internal/cli -seed":            "crashtest runs -seed 7; ROADMAP item 1 runs seeds 1-5",
	"internal/cli -chaos":           "README's chaos runs use -chaos default",
	"internal/cli -chaos-seed":      "README's chaos runs use -chaos-seed 7",
	"internal/cli -obs":             "address",
	"internal/cli -workers":         "make eventlog-smoke runs -workers 8; crashtest runs -workers 2",
	"internal/cli -save-policy":     "path",
	"internal/cli -load-policy":     "path",
	"internal/cli -eventlog":        "path",
	"internal/cli -eventlog-timing": "README's flight-recorder section records Decide latency with it; ROADMAP item 4 adds stage times to its records",
	"internal/cli -snapshot-dir":    "path",
	"internal/cli -snapshot-every":  "EXPERIMENTS.md thins long runs' cadence with it and measures -snapshot-every 64",
	"internal/cli -resume":          "crashtest resumes every killed run with it",
	"internal/cli -cpuprofile":      "path",
	"internal/cli -memprofile":      "path",

	"cmd/mobirescue -method": "README's run-diffing walkthrough runs -method schedule -episodes -1; ROADMAP item 1 runs all three methods",

	"cmd/experiments -fig": "DESIGN.md's figure table prints one figure per run, -fig 9 to -fig 16",

	"cmd/mobiserve -addr":         "address",
	"cmd/mobiserve -scale":        "the scenario the server hosts, the experiment knob every command takes",
	"cmd/mobiserve -seed":         "the scenario and model seed, the experiment knob every command takes",
	"cmd/mobiserve -teams":        "the sessions' default fleet, the experiment knob mobirescue's -teams is",
	"cmd/mobiserve -episodes":     "README's serving example trains for -episodes 2",
	"cmd/mobiserve -load-policy":  "path",
	"cmd/mobiserve -max-sessions": "sizes the session table to the host; loadgen caps its service at 1017 sessions",
	"cmd/mobiserve -queue-depth":  "sizes per-session backpressure to the host; serve's fuzz and leak tests run depth 2",
	"cmd/mobiserve -eventlog":     "path",
	"cmd/mobiserve -checkpoint":   "path",
	"cmd/mobiserve -resume":       "README's serving example restarts with -resume",
	"cmd/mobiserve -workers":      "bounds start-up training to the host, as mobirescue's -workers does",

	"cmd/loadgen -out":   "path",
	"cmd/loadgen -smoke": "make serve-smoke and its CI job",

	"cmd/crashtest -bin": "path; make crash-smoke passes the binary it builds",
	"cmd/crashtest -dir": "path",

	"cmd/analyze -scale": "EXPERIMENTS.md runs analyze -scale small; TestFigureFlagsStillRun",
	"cmd/analyze -seed":  "the scenario seed, which must match the run being measured; ROADMAP item 1 runs seeds 1-5",
	"cmd/analyze -out":   "EXPERIMENTS.md points at analyze -out per figure; TestFigureFlagsStillRun runs -out table1",

	"cmd/genscenario -scale":  "the scenario to export, the experiment knob every command takes",
	"cmd/genscenario -seed":   "the scenario seed, the experiment knob every command takes",
	"cmd/genscenario -city":   "path",
	"cmd/genscenario -people": "README runs genscenario -people 1000000",
}

// flagNameArg maps each flag-defining method of package flag and of
// *flag.FlagSet to the index of its name argument.
var flagNameArg = map[string]int{
	"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Var": 1, "TextVar": 1,
}

// TestEveryFlagHasASecondValue fails on a flag declared in a non-test
// file under cmd/ or internal/cli that flagInventory does not list, on
// a flag whose name is not a string literal, and on an inventory entry
// that no declaration matches.
func TestEveryFlagHasASecondValue(t *testing.T) {
	declared := map[string]token.Position{}
	for _, root := range []string{"cmd", "internal/cli"} {
		if err := declaredFlags(root, declared); err != nil {
			t.Fatal(err)
		}
	}
	for key, pos := range declared {
		if _, ok := flagInventory[key]; !ok {
			t.Errorf("%s: flag %q is not in flagInventory; make it a constant, or list where a second value is used", pos, key)
		}
	}
	for key := range flagInventory {
		if _, ok := declared[key]; !ok {
			t.Errorf("flagInventory lists %q, which nothing declares", key)
		}
	}
}

// declaredFlags adds to out every flag definition in the non-test Go
// files under root, keyed "<dir> -<name>", with its position.
func declaredFlags(root string, out map[string]token.Position) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg, sets := flagReceivers(f)
		if pkg == "" {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || err != nil {
				return err == nil
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isFlagReceiver(sel.X, pkg, sets) {
				return true
			}
			i, ok := flagNameArg[sel.Sel.Name]
			if !ok || i >= len(call.Args) {
				return true
			}
			pos := fset.Position(call.Pos())
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				err = fmt.Errorf("%s: flag name is not a string literal", pos)
				return false
			}
			name, uerr := strconv.Unquote(lit.Value)
			if uerr != nil {
				err = fmt.Errorf("%s: %v", pos, uerr)
				return false
			}
			out[dir+" -"+name] = pos
			return true
		})
		return err
	})
}

// flagReceivers returns the name f imports package flag under ("" when
// it does not) and the identifiers f declares as a *flag.FlagSet:
// parameters of that type and variables assigned from flag.NewFlagSet.
func flagReceivers(f *ast.File) (string, map[string]bool) {
	pkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			pkg = "flag"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	sets := map[string]bool{}
	isPkgSel := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if star, ok := n.Type.(*ast.StarExpr); ok && isPkgSel(star.X, "FlagSet") {
				for _, id := range n.Names {
					sets[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isPkgSel(call.Fun, "NewFlagSet") && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						sets[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if call, ok := v.(*ast.CallExpr); ok && isPkgSel(call.Fun, "NewFlagSet") && i < len(n.Names) {
					sets[n.Names[i].Name] = true
				}
			}
		}
		return true
	})
	return pkg, sets
}

// isFlagReceiver reports whether x is package flag itself,
// flag.CommandLine, or one of the file's *flag.FlagSet identifiers.
func isFlagReceiver(x ast.Expr, pkg string, sets map[string]bool) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == pkg || sets[x.Name]
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && id.Name == pkg && x.Sel.Name == "CommandLine"
	}
	return false
}
