package buckwild

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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
