// Package golint holds go/analysis-style source checks for the repo's
// own runtime invariants — conventions the Go type system cannot
// express and ordinary vet does not know about:
//
//   - lockdiscipline: functions documented "Must be called with mu
//     held" must not take mu again or call into functions documented
//     "WITHOUT mu held";
//   - hotalloc: functions marked //hinch:hotpath (the scheduler's
//     steady-state dispatch path) must not allocate — no make() and no
//     NewFrame constructor calls; pool (media.GetFrame) or preallocate
//     instead, or waive a provably cold sub-path with // hotalloc:ok.
//
// The checks are stdlib-only (go/ast + go/parser; the x/tools
// go/analysis driver is deliberately not a dependency) and run both
// directly (cmd/golint ./internal/hinch) and as a go vet -vettool.
package golint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diag is one finding.
type Diag struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the file:line:col convention.
func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Pkg is one parsed directory of Go files.
type Pkg struct {
	Fset  *token.FileSet
	Files []*ast.File
}

// Check is one named invariant checker.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Pkg) []Diag
}

// Checks lists every check in execution order.
var Checks = []Check{lockdisciplineCheck, hotallocCheck}

// LoadDir parses every .go file directly in dir (tests included — the
// invariants hold there too).
func LoadDir(dir string) (*Pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return LoadFiles(names)
}

// LoadFiles parses the given Go files into one Pkg.
func LoadFiles(names []string) (*Pkg, error) {
	p := &Pkg{Fset: token.NewFileSet()}
	for _, name := range names {
		f, err := parser.ParseFile(p.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	return p, nil
}

// Run applies every check to the package and returns the findings in
// position order.
func Run(p *Pkg) []Diag {
	var out []Diag
	for _, c := range Checks {
		out = append(out, c.Run(p)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// RunDir loads and checks one directory.
func RunDir(dir string) ([]Diag, error) {
	p, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return Run(p), nil
}

// exprString renders an ident/selector chain ("e.mu", "rc.app.eng");
// anything else renders as "" (never guarded, never a target).
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return ""
}

// funcDoc returns the doc text of a FuncDecl with whitespace
// normalised (comment rewrapping must not defeat phrase matching).
func funcDoc(fn *ast.FuncDecl) string {
	if fn.Doc == nil {
		return ""
	}
	return strings.Join(strings.Fields(fn.Doc.Text()), " ")
}

// hasDirective reports whether the function's doc block carries the
// given directive comment (directives are excluded from Doc.Text, so
// scan the raw list).
func hasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// recvName returns the receiver identifier of a method ("" for plain
// functions or anonymous receivers).
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}
