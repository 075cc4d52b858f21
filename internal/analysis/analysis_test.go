package analysis

import (
	"fmt"
	"strings"
	"testing"

	"xspcl/internal/graph"
)

// testCatalog is a minimal component catalog: src (out), work (in+out),
// sink (in), tap (in only, a second consumer class).
type testCatalog struct{}

func (testCatalog) ClassPorts(class string) (in, out []string, err error) {
	switch class {
	case "src":
		return nil, []string{"out"}, nil
	case "work":
		return []string{"in"}, []string{"out"}, nil
	case "sink", "tap":
		return []string{"in"}, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown class %q", class)
}

func analyze(t *testing.T, prog *graph.Program, opt Options) *Report {
	t.Helper()
	opt.Catalog = testCatalog{}
	rep, err := Analyze(prog, opt)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

func findings(rep *Report, pass string, sev Severity) []Finding {
	var out []Finding
	for _, f := range rep.Findings {
		if f.Pass == pass && f.Severity == sev {
			out = append(out, f)
		}
	}
	return out
}

// TestCleanPipeline: a straight-line pipeline has no findings.
func TestCleanPipeline(t *testing.T) {
	b := graph.NewBuilder("clean")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Component("w", "work", graph.Ports{"in": "a", "out": "b"}, nil),
		b.Component("k", "sink", graph.Ports{"in": "b"}, nil),
	)
	rep := analyze(t, b.MustProgram(), Options{})
	if len(rep.Findings) != 0 {
		t.Fatalf("clean pipeline produced findings: %+v", rep.Findings)
	}
	if rep.Configs != 1 {
		t.Fatalf("configs = %d, want 1", rep.Configs)
	}
}

// TestReadBeforeWrite: a component reading a stream whose only other
// writer is ordered after it reads an undefined value.
func TestReadBeforeWrite(t *testing.T) {
	b := graph.NewBuilder("rbw")
	b.Stream("a").Stream("late")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Component("blocked", "work", graph.Ports{"in": "late", "out": "a"}, nil),
		b.Component("prod", "work", graph.Ports{"in": "a", "out": "late"}, nil),
		b.Component("k", "sink", graph.Ports{"in": "a"}, nil),
	)
	rep := analyze(t, b.MustProgram(), Options{})
	errs := findings(rep, PassReads, Error)
	if len(errs) != 1 {
		t.Fatalf("reads errors = %d, want 1: %+v", len(errs), rep.Findings)
	}
	if f := errs[0]; f.Stream != "late" || f.Message != `component "blocked" reads stream "late", which no component ordered before it writes` {
		t.Fatalf("unexpected finding: %+v", f)
	}
}

// TestUnorderedWriter: a writer in parallel with the reader does not
// define the read, and neither does the reader's own write; a writer
// ordered before every copy of a slice or crossdep group does, in-place
// copies included.
func TestUnorderedWriter(t *testing.T) {
	b := graph.NewBuilder("par")
	b.Stream("a").Stream("p").Stream("self")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeTask, 0,
			b.Seq(b.Component("pw", "work", graph.Ports{"in": "a", "out": "p"}, nil)),
			b.Seq(b.Component("pr", "tap", graph.Ports{"in": "p"}, nil)),
		),
		b.Component("own", "work", graph.Ports{"in": "self", "out": "self"}, nil),
		b.Component("k", "sink", graph.Ports{"in": "a"}, nil),
	)
	rep := analyze(t, b.MustProgram(), Options{})
	errs := findings(rep, PassReads, Error)
	if len(errs) != 2 || errs[0].Stream != "p" || errs[1].Stream != "self" {
		t.Fatalf("reads errors = %+v, want one on p and one on self", errs)
	}

	b = graph.NewBuilder("groups")
	b.Stream("a").Stream("x")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Component("feed", "work", graph.Ports{"in": "a", "out": "x"}, nil),
		b.Parallel(graph.ShapeSlice, 4, b.Component("sl", "work", graph.Ports{"in": "x", "out": "x"}, nil)),
		b.Parallel(graph.ShapeCrossdep, 4,
			b.Seq(b.Component("xa", "work", graph.Ports{"in": "x", "out": "x"}, nil)),
			b.Seq(b.Component("xb", "work", graph.Ports{"in": "x", "out": "x"}, nil)),
		),
		b.Component("k", "sink", graph.Ports{"in": "x"}, nil),
	)
	if rep := analyze(t, b.MustProgram(), Options{}); len(rep.Findings) != 0 {
		t.Fatalf("slice and crossdep groups flagged: %+v", rep.Findings)
	}
}

// optionProg builds a program whose stream "os" is written only inside
// option "opt" (default off) and read after the manager; the binding
// kind decides reachability.
func optionProg(kind graph.ActionKind, defaultOn bool) *graph.Program {
	b := graph.NewBuilder("opt")
	b.Stream("a").Stream("os")
	b.Queue("q")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Manager("m", "q", []graph.EventBinding{graph.On("ev", kind, "opt")},
			b.Option("opt", defaultOn,
				b.Component("w", "work", graph.Ports{"in": "a", "out": "os"}, nil),
			),
		),
		b.Component("k", "sink", graph.Ports{"in": "a"}, nil),
		b.Component("tp", "tap", graph.Ports{"in": "os"}, nil),
	)
	return b.MustProgram()
}

// TestStarvedReader: with the option off in a reachable configuration,
// the outside reader of its stream reads a stream nothing wrote.
func TestStarvedReader(t *testing.T) {
	rep := analyze(t, optionProg(graph.ActionToggle, false), Options{})
	errs := findings(rep, PassReads, Error)
	if len(errs) != 1 || errs[0].Stream != "os" || errs[0].Config == "" {
		t.Fatalf("reads errors = %+v, want one on stream os naming its configuration", errs)
	}
	if rep.Configs != 2 {
		t.Fatalf("configs = %d, want 2", rep.Configs)
	}
	// Enable-only from default-on: the off state is unreachable, so the
	// reader is always fed.
	rep = analyze(t, optionProg(graph.ActionEnable, true), Options{})
	if errs := findings(rep, PassReads, Error); len(errs) != 0 {
		t.Fatalf("always-on option still starves: %+v", errs)
	}
}

// TestUnreachableOption: default-off plus a disable-only binding can
// never enable the option.
func TestUnreachableOption(t *testing.T) {
	rep := analyze(t, optionProg(graph.ActionDisable, false), Options{})
	errs := findings(rep, PassReconfig, Error)
	if len(errs) != 1 || !strings.Contains(errs[0].Message, `option "opt"`) {
		t.Fatalf("reconfig errors = %+v, want unreachable option", errs)
	}
	rep = analyze(t, optionProg(graph.ActionToggle, false), Options{})
	if errs := findings(rep, PassReconfig, Error); len(errs) != 0 {
		t.Fatalf("toggleable option flagged unreachable: %+v", errs)
	}
}

// TestDeadBinding: enabling an option that is enabled in every
// reachable configuration never changes state.
func TestDeadBinding(t *testing.T) {
	rep := analyze(t, optionProg(graph.ActionEnable, true), Options{})
	warns := findings(rep, PassBindings, Warning)
	if len(warns) != 1 || !strings.Contains(warns[0].Message, "never changes state") {
		t.Fatalf("bindings warnings = %+v, want one dead enable", warns)
	}
	rep = analyze(t, optionProg(graph.ActionEnable, false), Options{})
	if warns := findings(rep, PassBindings, Warning); len(warns) != 0 {
		t.Fatalf("live enable flagged dead: %+v", warns)
	}
}

// TestForwardUnhandled: forwarding an event to a queue where no
// manager binds it is dead plumbing.
func TestForwardUnhandled(t *testing.T) {
	b := graph.NewBuilder("fwd")
	b.Stream("a")
	b.Queue("q1").Queue("q2")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Manager("m1", "q1", []graph.EventBinding{
			graph.On("ev", graph.ActionToggle, "o1"),
			graph.On("lost", graph.ActionForward, "q2"),
		},
			b.Option("o1", true,
				b.Component("w", "work", graph.Ports{"in": "a", "out": "a"}, nil),
			),
		),
		b.Component("k", "sink", graph.Ports{"in": "a"}, nil),
	)
	rep := analyze(t, b.MustProgram(), Options{})
	warns := findings(rep, PassBindings, Warning)
	if len(warns) != 1 || !strings.Contains(warns[0].Message, `queue "q2"`) {
		t.Fatalf("bindings warnings = %+v, want one unhandled forward", warns)
	}
}

// TestConflictingActions: two actions on one option from one event
// race in binding order.
func TestConflictingActions(t *testing.T) {
	b := graph.NewBuilder("conflict")
	b.Stream("a")
	b.Queue("q")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Manager("m", "q", []graph.EventBinding{
			graph.On("ev", graph.ActionEnable, "o1"),
			graph.On("ev", graph.ActionDisable, "o1"),
		},
			b.Option("o1", false,
				b.Component("w", "work", graph.Ports{"in": "a", "out": "a"}, nil),
			),
		),
		b.Component("k", "sink", graph.Ports{"in": "a"}, nil),
	)
	rep := analyze(t, b.MustProgram(), Options{})
	found := false
	for _, f := range findings(rep, PassBindings, Warning) {
		if strings.Contains(f.Message, "2 actions") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no conflict warning in %+v", rep.Findings)
	}
}

// TestQuiescence: a writer in a parallel branch, unordered with a
// manager's halt scope that consumes its stream, breaks quiescence.
func TestQuiescence(t *testing.T) {
	b := graph.NewBuilder("halt")
	b.Stream("a").Stream("s").Stream("o")
	b.Queue("q")
	b.Body(
		b.Parallel(graph.ShapeTask, 0,
			b.Seq(
				b.Component("sA", "src", graph.Ports{"out": "s"}, nil),
			),
			b.Seq(
				b.Component("sB", "src", graph.Ports{"out": "a"}, nil),
				b.Manager("m", "q", []graph.EventBinding{graph.On("ev", graph.ActionToggle, "o1")},
					b.Component("w", "work", graph.Ports{"in": "s", "out": "o"}, nil),
					b.Option("o1", true,
						b.Component("wo", "work", graph.Ports{"in": "a", "out": "a"}, nil),
					),
				),
			),
		),
		b.Component("k", "sink", graph.Ports{"in": "o"}, nil),
		b.Component("tp", "tap", graph.Ports{"in": "a"}, nil),
	)
	rep := analyze(t, b.MustProgram(), Options{})
	warns := findings(rep, PassReconfig, Warning)
	if len(warns) != 1 || warns[0].Stream != "s" {
		t.Fatalf("reconfig warnings = %+v, want one quiescence violation on s", warns)
	}

	// The sequential version (writer ordered before the manager) is
	// clean.
	b2 := graph.NewBuilder("halt-seq")
	b2.Stream("a").Stream("s").Stream("o")
	b2.Queue("q")
	b2.Body(
		b2.Component("sA", "src", graph.Ports{"out": "s"}, nil),
		b2.Component("sB", "src", graph.Ports{"out": "a"}, nil),
		b2.Manager("m", "q", []graph.EventBinding{graph.On("ev", graph.ActionToggle, "o1")},
			b2.Component("w", "work", graph.Ports{"in": "s", "out": "o"}, nil),
			b2.Option("o1", true,
				b2.Component("wo", "work", graph.Ports{"in": "a", "out": "a"}, nil),
			),
		),
		b2.Component("k", "sink", graph.Ports{"in": "o"}, nil),
		b2.Component("tp", "tap", graph.Ports{"in": "a"}, nil),
	)
	rep = analyze(t, b2.MustProgram(), Options{})
	if warns := findings(rep, PassReconfig, Warning); len(warns) != 0 {
		t.Fatalf("sequential halt scope flagged: %+v", warns)
	}
}

// TestDisablePasses: a suppressed pass reports nothing.
func TestDisablePasses(t *testing.T) {
	rep := analyze(t, optionProg(graph.ActionToggle, false), Options{Disable: map[string]bool{PassReads: true}})
	if len(findings(rep, PassReads, Error)) != 0 {
		t.Fatalf("disabled pass still reported: %+v", rep.Findings)
	}
}

// TestOrderingAcrossPluralBoundary: every pass reads "a runs before b"
// from cfgInfo, so the dependency closure must see through a join — the boundary between two slice groups
// is plural on both sides and the plan stores it as one join, with no
// direct edge between an idct slice and a blend slice.
func TestOrderingAcrossPluralBoundary(t *testing.T) {
	const n = 4
	b := graph.NewBuilder("plural")
	b.Stream("pk").Stream("cf").Stream("out")
	b.Body(
		b.Component("dec", "src", graph.Ports{"out": "pk"}, nil),
		b.Parallel(graph.ShapeSlice, n, b.Component("idct", "work", graph.Ports{"in": "pk", "out": "cf"}, nil)),
		b.Parallel(graph.ShapeSlice, n, b.Component("blend", "work", graph.Ports{"in": "cf", "out": "out"}, nil)),
		b.Component("snk", "sink", graph.Ports{"in": "out"}, nil),
	)
	prog := b.MustProgram()
	dirs, err := classDirs(prog, testCatalog{})
	if err != nil {
		t.Fatal(err)
	}
	a := &analyzer{prog: prog, opt: Options{Catalog: testCatalog{}}, dirs: dirs}
	ci, err := a.buildInfo(prog.Configurations()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.plan.Joins) != 1 {
		t.Fatalf("plan has %d joins, want the idct -> blend boundary as one", len(ci.plan.Joins))
	}
	id := map[string]int{}
	for _, tk := range ci.plan.Tasks {
		id[tk.Name] = tk.ID
	}
	for i := 0; i < n; i++ {
		idct := id[fmt.Sprintf("idct#%d", i)]
		for j := 0; j < n; j++ {
			blend := id[fmt.Sprintf("blend#%d", j)]
			if len(ci.plan.Tasks[blend].DirectDeps) != 0 {
				t.Fatalf("blend#%d has direct deps; the test wants the join", j)
			}
			if !ci.after(idct, blend) || ci.after(blend, idct) {
				t.Fatalf("after(idct#%d, blend#%d) = %v, reverse %v; want true, false",
					i, j, ci.after(idct, blend), ci.after(blend, idct))
			}
			if i != j && ci.after(idct, id[fmt.Sprintf("idct#%d", j)]) {
				t.Fatalf("idct#%d ordered before its sibling idct#%d", i, j)
			}
		}
	}
	if !ci.after(id["dec"], id["snk"]) {
		t.Fatal("closure does not carry through the join")
	}
}
