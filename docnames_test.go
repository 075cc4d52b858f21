package xspcl_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// citedDocs are the docs whose backticked Go names must resolve.
// EXPERIMENTS.md is left out: its per-PR sections cite deleted names on
// purpose, as history.
var citedDocs = []string{"DESIGN.md", "README.md"}

// dottedSpan matches a backticked dotted name — `A.B`, `A.B.C`,
// optionally with `()` — as a whole code span.
var dottedSpan = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\\(\\))?`")

// fileExts are the last parts that make a dotted span a file name, not
// a Go name.
var fileExts = map[string]bool{
	"go": true, "md": true, "json": true, "jsonl": true, "xml": true, "golden": true,
	"sha256": true, "txt": true, "sh": true, "mod": true, "yml": true, "perfetto": true,
}

// TestDocsCiteDeclaredNames fails on a dotted Go name in DESIGN.md or
// README.md that has a part declared nowhere: not in the module's Go
// files (types, funcs, methods, fields, consts, vars, parameters, JSON
// tag names, package and import names) and, for a name that starts with
// an imported standard-library package, not in that package either.
func TestDocsCiteDeclaredNames(t *testing.T) {
	names, stdImports := declaredNames(t, ".", true)
	stdNames := map[string]map[string]bool{} // loaded on first use
	for _, doc := range citedDocs {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range dottedSpan.FindAllStringSubmatch(text, -1) {
				parts := strings.Split(m[1], ".")
				if fileExts[parts[len(parts)-1]] {
					continue
				}
				var std map[string]bool
				if path, ok := stdImports[parts[0]]; ok {
					if stdNames[path] == nil {
						stdNames[path], _ = declaredNames(t, filepath.Join(build.Default.GOROOT, "src", path), false)
					}
					std = stdNames[path]
				}
				for _, p := range parts {
					if !names[p] && !std[p] {
						t.Errorf("%s:%d: `%s`: %s is declared nowhere in the module", doc, line, m[1], p)
						break
					}
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// declaredNames parses every non-test Go file in root and, with
// subdirs, in the directories under it that belong to the same module
// (testdata, hidden directories and nested modules skipped). It returns
// the names they declare, and the standard-library imports by the name
// they are imported under.
func declaredNames(t *testing.T, root string, subdirs bool) (names map[string]bool, stdImports map[string]string) {
	t.Helper()
	names, stdImports = map[string]bool{}, map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			base := d.Name()
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !subdirs || err == nil || base == "testdata" || strings.HasPrefix(base, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names[f.Name.Name] = true
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
			if first, _, _ := strings.Cut(ipath, "/"); !strings.Contains(first, ".") && first != "xspcl" {
				stdImports[name] = ipath
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
				if n.Tag != nil {
					tag, _ := strconv.Unquote(n.Tag.Value)
					if js, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); js != "" && js != "-" {
						names[js] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, stdImports
}
