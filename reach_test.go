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

// moduleFiles parses the non-test Go files of the module's root, cmd/,
// internal/ and benchmark/ trees, keyed by directory. Examples, testdata
// and hidden directories do not count.
func moduleFiles(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	dirs := map[string][]*ast.File{}
	for _, root := range []string{".", "cmd", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (root == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// exemptMethods are the method names the standard library calls through
// an interface: fmt, errors, encoding/json, sort, log/slog and net/http.
var exemptMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true, "ServeHTTP": true,
}

// TestExportsReached enforces the name rule: every exported top-level
// func, method, type, const and var of the non-test internal/ code is
// named somewhere in the module's non-test code by an identifier that is
// not one of these declarations. The rule reads names only, so a field,
// a method or a local of the same name elsewhere counts; methods the
// standard library calls through an interface are exempt. A name only
// tests call goes, or moves into the tests that use it.
func TestExportsReached(t *testing.T) {
	fset := token.NewFileSet()
	dirs := moduleFiles(t, fset)
	decls := map[*ast.Ident]string{}
	declare := func(id *ast.Ident, name string) {
		if id.IsExported() {
			decls[id] = filepath.ToSlash(name)
		}
	}
	for dir, files := range dirs {
		if !strings.HasPrefix(dir, "internal") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name, dir+"."+d.Name.Name)
					} else if !exemptMethods[d.Name.Name] {
						declare(d.Name, dir+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, dir+"."+s.Name.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(n, dir+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, files := range dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if _, decl := decls[id]; !decl {
						used[id.Name] = true
					}
				}
				return true
			})
		}
	}
	var unreached []string
	for id, name := range decls {
		if !used[id.Name] {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("exported names only tests reach: %s", strings.Join(unreached, ", "))
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestInternalOptionsSet enforces the option rule inside the module:
// every exported field of an internal struct named …Config or …Params,
// and of obs.Observer, obs.HealthWatchdog, obs.Surface and
// machine.Workload, is set by non-test code. A
// keyed composite literal counts wherever it is; an assignment counts
// only in a file outside the declaring package that imports it, so a
// fill() default does not set its own field. The rule reads syntax only:
// a literal's type is resolved through its package qualifier, type
// aliases and the element type of an enclosing slice, array or map
// literal, and an assignment is matched by field name. A field nothing
// sets becomes the constant its callers already get, or an unexported
// seam its package's tests set.
func TestInternalOptionsSet(t *testing.T) {
	fset := token.NewFileSet()
	dirs := moduleFiles(t, fset)
	type typeName struct{ dir, name string }
	type field struct {
		typeName
		name string
	}
	// imports maps a file's package names to the module directories
	// they import.
	imports := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			dir := "."
			if path != "buckwild" {
				rest, ok := strings.CutPrefix(path, "buckwild/")
				if !ok {
					continue
				}
				dir = filepath.FromSlash(rest)
			}
			name := filepath.Base(dir)
			if dir == "." {
				name = "buckwild"
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			m[name] = dir
		}
		return m
	}
	// named resolves T, *T and pkg.T in a file of dir.
	named := func(dir string, imported map[string]string, e ast.Expr) typeName {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		switch x := e.(type) {
		case *ast.Ident:
			return typeName{dir, x.Name}
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok && imported[pkg.Name] != "" {
				return typeName{imported[pkg.Name], x.Sel.Name}
			}
		}
		return typeName{}
	}

	// options are the option structs the name rule misses.
	options := map[string]bool{
		"internal/obs.Observer": true, "internal/obs.HealthWatchdog": true,
		"internal/obs.Surface": true, "internal/machine.Workload": true,
	}
	fields := map[field]bool{}
	aliases := map[typeName]typeName{}
	for dir, files := range dirs {
		for _, f := range files {
			imported := imports(f)
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					ts := s.(*ast.TypeSpec)
					tn := typeName{dir, ts.Name.Name}
					if ts.Assign.IsValid() {
						aliases[tn] = named(dir, imported, ts.Type)
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					full := filepath.ToSlash(dir) + "." + tn.name
					if !ok || !strings.HasPrefix(dir, "internal") || !ts.Name.IsExported() ||
						!strings.HasSuffix(tn.name, "Config") && !strings.HasSuffix(tn.name, "Params") && !options[full] {
						continue
					}
					for _, fl := range st.Fields.List {
						names := fl.Names
						if len(names) == 0 {
							names = []*ast.Ident{{Name: recvName(fl.Type)}}
						}
						for _, n := range names {
							if n.IsExported() {
								fields[field{tn, n.Name}] = false
							}
						}
					}
				}
			}
		}
	}

	for dir, files := range dirs {
		for _, f := range files {
			imported := imports(f)
			var visit func(n ast.Node, elem ast.Expr) bool
			visit = func(n ast.Node, elem ast.Expr) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := n.Type
					if typ == nil {
						typ = elem
					}
					var inner ast.Expr
					switch x := typ.(type) {
					case *ast.ArrayType:
						inner = x.Elt
					case *ast.MapType:
						inner = x.Value
					}
					tn := named(dir, imported, typ)
					for a, ok := aliases[tn]; ok; a, ok = aliases[tn] {
						tn = a
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if _, tracked := fields[field{tn, id.Name}]; tracked {
									fields[field{tn, id.Name}] = true
								}
							}
							e = kv.Value
						}
						ast.Inspect(e, func(m ast.Node) bool { return visit(m, inner) })
					}
					return false
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						for k := range fields {
							if k.name != sel.Sel.Name || k.dir == dir {
								continue
							}
							for _, d := range imported {
								if d == k.dir {
									fields[k] = true
								}
							}
						}
					}
				}
				return true
			}
			ast.Inspect(f, func(n ast.Node) bool { return visit(n, nil) })
		}
	}

	var unset []string
	for k, set := range fields {
		if !set {
			unset = append(unset, filepath.ToSlash(k.dir)+"."+k.typeName.name+"."+k.name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("internal options only tests or defaults set: %s", strings.Join(unset, ", "))
	}
}
