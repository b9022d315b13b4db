package buckwild

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesReached enforces the tree's pruning rule: every
// internal package is imported, directly or transitively, by the non-test
// code of a command under cmd/ or of the benchmark harness. Examples and
// tests do not count. A package nothing reaches either goes, or comes
// back with the command, experiment or benchmark row that uses it.
func TestInternalPackagesReached(t *testing.T) {
	fset := token.NewFileSet()
	// imports lists the module directories the non-test files of dir import.
	imports := func(dir string) []string {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range af.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if path == "buckwild" {
					out = append(out, ".")
				} else if rest, ok := strings.CutPrefix(path, "buckwild/"); ok {
					out = append(out, filepath.FromSlash(rest))
				}
			}
		}
		return out
	}

	var queue []string
	for _, root := range []string{"cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				queue = append(queue, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if !reached[dir] {
			reached[dir] = true
			queue = append(queue, imports(dir)...)
		}
	}

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, e := range entries {
		if e.IsDir() && !reached[filepath.Join("internal", e.Name())] {
			unreached = append(unreached, e.Name())
		}
	}
	if len(unreached) > 0 {
		t.Errorf("internal packages no command or benchmark reaches: %s", strings.Join(unreached, ", "))
	}
}

// TestFacadeOptionsSet enforces the option rule: every exported field of
// the facade's config structs is set — keyed in a composite literal or
// assigned — by the non-test code of a command under cmd/ or of the
// benchmark harness. Examples and tests do not count, and Context is
// exempt because cancellation is a safety property. A field nothing sets
// becomes the constant its callers already get, or comes back with the
// command or benchmark row that varies it.
func TestFacadeOptionsSet(t *testing.T) {
	fset := token.NewFileSet()
	parseDir := func(dir string) []*ast.File {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	// Only the facade's own types matter: every other import is left
	// unresolved, and the checker carries on past the errors that causes.
	var facade *types.Package
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "buckwild" && facade != nil {
				return facade, nil
			}
			return nil, fmt.Errorf("not loaded: %s", path)
		}),
		Error: func(error) {},
	}
	facade, _ = conf.Check("buckwild", fset, parseDir("."), nil)

	owner := map[*types.Var]string{}
	for _, name := range []string{"Config", "ClusterConfig", "RunConfig", "ServeConfig", "SyncConfig"} {
		obj := facade.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("facade has no type %s", name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && f.Name() != "Context" {
				owner[f] = name + "." + f.Name()
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, root := range []string{"cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files := parseDir(dir)
			if len(files) == 0 {
				return nil
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			conf.Check(dir, fset, files, info)
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								set[v] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
								if v, ok := info.Selections[sel].Obj().(*types.Var); ok {
									set[v] = true
								}
							}
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unset []string
	for f, name := range owner {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("facade options no command or benchmark sets: %s", strings.Join(unset, ", "))
	}
}

// TestOneEventPath enforces the event rule: every event is one log call,
// and the flight ring reads the log. No non-test code of the module
// outside internal/obs/flight.go calls FlightRecorder.Record (the
// benchmark harness, its own module, times the method), and internal/obs
// declares one interface of On… callbacks, Hooks.
func TestOneEventPath(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.Default()
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkgs := map[string]*types.Package{}
	var load func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == "buckwild" || strings.HasPrefix(path, "buckwild/") {
			return load(path)
		}
		return std.Import(path)
	})}
	load = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "buckwild"), "/"))
		if dir == "" {
			dir = "."
		}
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		p, err := conf.Check(path, fset, files, info)
		pkgs[path] = p
		return p, err
	}

	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		}
		if names, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(names) == 0 {
			return nil
		}
		_, err = load(strings.TrimSuffix("buckwild/"+filepath.ToSlash(dir), "/."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	obsPkg := pkgs["buckwild/internal/obs"]
	rec := obsPkg.Scope().Lookup("FlightRecorder").Type()
	record := types.NewMethodSet(types.NewPointer(rec)).Lookup(obsPkg, "Record").Obj()
	var calls []string
	for sel, s := range info.Selections {
		if s.Obj() != record {
			continue
		}
		pos := fset.Position(sel.Pos())
		if filepath.ToSlash(pos.Filename) != "internal/obs/flight.go" {
			calls = append(calls, fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line))
		}
	}
	sort.Strings(calls)
	if len(calls) > 0 {
		t.Errorf("FlightRecorder.Record called outside internal/obs/flight.go (log the event with an \"event\" attribute instead): %s",
			strings.Join(calls, ", "))
	}

	var hooks []string
	for _, name := range obsPkg.Scope().Names() {
		it, ok := obsPkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if strings.HasPrefix(it.Method(i).Name(), "On") {
				hooks = append(hooks, name)
				break
			}
		}
	}
	if strings.Join(hooks, " ") != "Hooks" {
		t.Errorf("internal/obs callback interfaces = %v, want only Hooks", hooks)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
