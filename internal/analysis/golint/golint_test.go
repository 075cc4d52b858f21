package golint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// load parses one synthetic source file.
func load(t *testing.T, src string) *Pkg {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "src.go")
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expect runs every check and matches the findings against fragments.
func expect(t *testing.T, src string, want ...string) {
	t.Helper()
	diags := Run(load(t, src))
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if !strings.Contains(diags[i].String(), w) {
			t.Errorf("finding %d = %q, want fragment %q", i, diags[i], w)
		}
	}
}

func TestLockdiscipline(t *testing.T) {
	// A locked function re-taking mu.
	expect(t, `package p
// f does things. Must be called with mu held.
func (e *E) f() { e.mu.Lock() }
`, "lockdiscipline: f takes e.mu")

	// A locked function calling a WITHOUT-mu function.
	expect(t, `package p
// f frobs. Must be called with mu held.
func (e *E) f() { e.g() }

// g must be called WITHOUT mu held.
func (e *E) g() {}
`, "lockdiscipline: f (documented")

	// Doc rewrapping across lines still matches.
	expect(t, `package p
// f has a long doc comment so the phrase Must be called with
// mu held wraps across lines.
func (e *E) f() { e.mu.Lock() }
`, "lockdiscipline: f takes e.mu")

	// Locking a different mutex is fine.
	expect(t, `package p
// f locks an instance. Must be called with mu held.
func (e *E) f(in *I) { in.mu.Lock() }
`)
}

func TestHotalloc(t *testing.T) {
	// make and NewFrame inside a hot-path function are flagged.
	expect(t, `package p
// f dispatches. It is hot.
//
//hinch:hotpath
func f() {
	buf := make([]byte, 64)
	fr := media.NewFrame(64, 48)
	_, _ = buf, fr
}
`, "hotalloc: make allocates inside //hinch:hotpath function f",
		"hotalloc: media.NewFrame allocates inside //hinch:hotpath function f")

	// Unannotated functions allocate freely; the pooled GetFrame is
	// always fine.
	expect(t, `package p
func g() { _ = make([]byte, 64) }

//hinch:hotpath
func h() { _ = media.GetFrame(64, 48) }
`)

	// A bare NewFrame call (same package) is also flagged.
	expect(t, `package p
//hinch:hotpath
func f() { _ = NewFrame(64, 48) }
`, "hotalloc: NewFrame allocates inside //hinch:hotpath function f")

	// The waiver comment exempts a cold sub-path line, and only that
	// line.
	expect(t, `package p
//hinch:hotpath
func f(n int) {
	if n > cap(buf) {
		buf = make([]byte, n) // hotalloc:ok — first touch only
	}
	_ = make([]int, n)
}
`, "hotalloc: make allocates inside //hinch:hotpath function f")

	// Function literals inside a hot-path function inherit the
	// constraint (they run on the same path).
	expect(t, `package p
//hinch:hotpath
func f() {
	g := func() { _ = make([]byte, 1) }
	g()
}
`, "hotalloc: make allocates inside //hinch:hotpath function f")
}

// TestHinchClean pins the checks to the tree: the hinch runtime (and
// its trace package) must satisfy every invariant. This is the test
// that makes the conventions load-bearing rather than aspirational.
func TestHinchClean(t *testing.T) {
	_, thisFile, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(thisFile), "..", "..", "..")
	for _, dir := range []string{"internal/hinch", "internal/hinch/trace"} {
		diags, err := RunDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
