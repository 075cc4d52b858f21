package golint

import (
	"fmt"
	"go/ast"
	"strings"
)

// ---------------------------------------------------------------- hotalloc

// hotpathDirective marks a function on the scheduler's steady-state
// dispatch path, where per-iteration allocation is a performance bug:
// the zero-allocation property is pinned by TestSchedulerSteadyStateAllocs,
// and a single make() on this path shows up as N allocations per run.
const hotpathDirective = "hinch:hotpath"

// hotallocWaiver on (or at the end of) a line waives the hotalloc
// finding for calls on that line — for allocations that provably run
// only on cold sub-paths (first touch, error handling, growth beyond a
// preallocated capacity).
const hotallocWaiver = "hotalloc:ok"

var hotallocCheck = Check{
	Name: "hotalloc",
	Doc:  "//hinch:hotpath functions must not allocate (no make / NewFrame; pool or preallocate)",
	Run:  runHotalloc,
}

func runHotalloc(p *Pkg) []Diag {
	var diags []Diag
	for _, f := range p.Files {
		// Collect the lines carrying a waiver comment first: the
		// comments are not attached to the expression nodes they waive.
		waived := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, hotallocWaiver) {
					waived[p.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn, hotpathDirective) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				what := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "make" {
						what = "make"
					} else if fun.Name == "NewFrame" {
						what = "NewFrame"
					}
				case *ast.SelectorExpr:
					// media.NewFrame and friends: any NewFrame
					// constructor; GetFrame is the pooled twin and is
					// what hot paths should call instead.
					if fun.Sel.Name == "NewFrame" {
						what = exprString(fun.X) + ".NewFrame"
					}
				}
				if what == "" {
					return true
				}
				pos := p.Fset.Position(call.Pos())
				if waived[pos.Line] {
					return true
				}
				diags = append(diags, Diag{
					Pos:   pos,
					Check: "hotalloc",
					Message: fmt.Sprintf(
						"%s allocates inside //hinch:hotpath function %s (pool or preallocate; waive a cold sub-path with // %s)",
						what, fn.Name.Name, hotallocWaiver),
				})
				return true
			})
		}
	}
	return diags
}

// ---------------------------------------------------------- lockdiscipline

var lockdisciplineCheck = Check{
	Name: "lockdiscipline",
	Doc:  "functions documented as holding mu must not re-lock it or call WITHOUT-mu functions",
	Run:  runLockdiscipline,
}

const (
	lockedPhrase   = "Must be called with mu held"
	unlockedPhrase = "WITHOUT mu held"
)

func runLockdiscipline(p *Pkg) []Diag {
	// Pass 1: classify every declared function by its doc contract.
	unlocked := map[string]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if strings.Contains(funcDoc(fn), unlockedPhrase) {
					unlocked[fn.Name.Name] = true
				}
			}
		}
	}

	var diags []Diag
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !strings.Contains(funcDoc(fn), lockedPhrase) {
				continue
			}
			recv := recvName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pos := p.Fset.Position(call.Pos())
				// recv.mu.Lock() / recv.mu.Unlock(): re-entry deadlock.
				if sel.Sel.Name == "Lock" || sel.Sel.Name == "Unlock" {
					if recv != "" && exprString(sel.X) == recv+".mu" {
						diags = append(diags, Diag{
							Pos: pos, Check: "lockdiscipline",
							Message: fmt.Sprintf("%s takes %s.mu but is documented %q", fn.Name.Name, recv, lockedPhrase),
						})
					}
				}
				// recv.f() where f is documented WITHOUT mu held.
				if recv != "" && exprString(sel.X) == recv && unlocked[sel.Sel.Name] {
					diags = append(diags, Diag{
						Pos: pos, Check: "lockdiscipline",
						Message: fmt.Sprintf("%s (documented %q) calls %s, documented %q", fn.Name.Name, lockedPhrase, sel.Sel.Name, unlockedPhrase),
					})
				}
				return true
			})
		}
	}
	return diags
}
