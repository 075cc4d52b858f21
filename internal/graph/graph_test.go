package graph

import (
	"fmt"
	"strings"
	"testing"
)

// fakeCatalog implements Catalog for validation tests.
type fakeCatalog map[string][2][]string

func (c fakeCatalog) ClassPorts(class string) (in, out []string, err error) {
	p, ok := c[class]
	if !ok {
		return nil, nil, fmt.Errorf("unknown class %q", class)
	}
	return p[0], p[1], nil
}

var testCatalog = fakeCatalog{
	"src":    {{}, {"out"}},
	"filter": {{"in"}, {"out"}},
	"sink":   {{"in"}, {}},
}

func chainProgram() *Program {
	b := NewBuilder("chain")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Component("f", "filter", Ports{"in": "a", "out": "b"}, nil),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

func taskByName(p *Plan, name string) *Task {
	for _, t := range p.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

func hasDep(p *Plan, task, dep string) bool {
	t := taskByName(p, task)
	d := taskByName(p, dep)
	if t == nil || d == nil {
		return false
	}
	for _, id := range p.Preds(t.ID) {
		if id == d.ID {
			return true
		}
	}
	return false
}

func TestSequentialChainPlan(t *testing.T) {
	plan, err := BuildPlan(chainProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 3 {
		t.Fatalf("%d tasks", len(plan.Tasks))
	}
	if !hasDep(plan, "f", "src") || !hasDep(plan, "snk", "f") {
		t.Fatal("sequential deps missing")
	}
	if hasDep(plan, "snk", "src") {
		t.Fatal("unexpected transitive dep materialised")
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskParallelPlan(t *testing.T) {
	b := NewBuilder("par")
	b.Stream("a").Stream("b").Stream("c")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Parallel(ShapeTask, 0,
			b.Component("f1", "filter", Ports{"in": "a", "out": "b"}, nil),
			b.Component("f2", "filter", Ports{"in": "a", "out": "c"}, nil),
		),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	plan, err := BuildPlan(b.MustProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDep(plan, "f1", "src") || !hasDep(plan, "f2", "src") {
		t.Fatal("parblocks must depend on predecessor")
	}
	if hasDep(plan, "f2", "f1") || hasDep(plan, "f1", "f2") {
		t.Fatal("parblocks must be independent")
	}
	if !hasDep(plan, "snk", "f1") || !hasDep(plan, "snk", "f2") {
		t.Fatal("successor must wait for all parblocks")
	}
}

func TestSlicePlanReplication(t *testing.T) {
	b := NewBuilder("slice")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Parallel(ShapeSlice, 4,
			b.Component("f", "filter", Ports{"in": "a", "out": "b"}, nil),
		),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	plan, err := BuildPlan(b.MustProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 6 {
		t.Fatalf("%d tasks, want 6", len(plan.Tasks))
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f#%d", i)
		tk := taskByName(plan, name)
		if tk == nil {
			t.Fatalf("missing slice copy %s", name)
		}
		if tk.Slice != i || tk.NSlices != 4 {
			t.Fatalf("%s has slice %d/%d", name, tk.Slice, tk.NSlices)
		}
		if !hasDep(plan, name, "src") || !hasDep(plan, "snk", name) {
			t.Fatalf("%s not linked into chain", name)
		}
	}
}

func TestSliceRequiresSingleParblock(t *testing.T) {
	b := NewBuilder("bad")
	b.Stream("a")
	b.Body(
		b.Parallel(ShapeSlice, 2,
			b.Component("x", "src", Ports{"out": "a"}, nil),
			b.Component("y", "src", Ports{"out": "a"}, nil),
		),
	)
	p := &Program{Name: "bad", Root: &Node{Kind: KindSeq, Children: []*Node{
		b.Parallel(ShapeSlice, 2,
			b.Component("x", "src", Ports{"out": "a"}, nil),
			b.Component("y", "src", Ports{"out": "a"}, nil),
		),
	}}, Streams: []StreamDecl{{Name: "a"}}}
	if _, err := BuildPlan(p, nil); err == nil {
		t.Fatal("two-parblock slice accepted by BuildPlan")
	}
	if err := p.Validate(nil); err == nil {
		t.Fatal("two-parblock slice accepted by Validate")
	}
}

func TestCrossdepPattern(t *testing.T) {
	// Two parblocks (h, v) with n=4: v#i must depend on h#(i-1), h#i,
	// h#(i+1) and nothing else — the paper's Figure 5.
	b := NewBuilder("cross")
	b.Stream("a").Stream("b").Stream("c")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Parallel(ShapeCrossdep, 4,
			b.Component("h", "filter", Ports{"in": "a", "out": "b"}, nil),
			b.Component("v", "filter", Ports{"in": "b", "out": "c"}, nil),
		),
		b.Component("snk", "sink", Ports{"in": "c"}, nil),
	)
	plan, err := BuildPlan(b.MustProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := fmt.Sprintf("v#%d", i)
		for j := 0; j < 4; j++ {
			h := fmt.Sprintf("h#%d", j)
			want := j >= i-1 && j <= i+1
			if hasDep(plan, v, h) != want {
				t.Errorf("dep %s -> %s = %v, want %v", v, h, !want, want)
			}
		}
		// Entries depend on src, all exits feed snk.
		if !hasDep(plan, fmt.Sprintf("h#%d", i), "src") {
			t.Errorf("h#%d must depend on src", i)
		}
		if !hasDep(plan, "snk", v) {
			t.Errorf("snk must depend on %s", v)
		}
	}
	// The program is declared non-SP.
	if b.MustProgram().IsSP() {
		t.Fatal("crossdep program reported as SP")
	}
	if !chainProgram().IsSP() {
		t.Fatal("chain program reported as non-SP")
	}
}

func managerProgram(defaultOn bool) *Program {
	b := NewBuilder("mgr")
	b.Stream("a").Stream("b").Stream("c")
	b.Queue("ui")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Manager("m", "ui",
			[]EventBinding{On("toggle", ActionToggle, "opt")},
			b.Component("f", "filter", Ports{"in": "a", "out": "b"}, nil),
			b.Option("opt", defaultOn,
				b.Component("g", "filter", Ports{"in": "b", "out": "c"}, nil),
			),
		),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

func TestManagerEntryExitTasks(t *testing.T) {
	plan, err := BuildPlan(managerProgram(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	entry := taskByName(plan, "m.entry")
	exit := taskByName(plan, "m.exit")
	if entry == nil || exit == nil {
		t.Fatal("manager entry/exit tasks missing")
	}
	if entry.Role != RoleManagerEntry || exit.Role != RoleManagerExit {
		t.Fatal("wrong roles")
	}
	if entry.Manager != "m" || exit.Manager != "m" {
		t.Fatal("manager name not carried")
	}
	if !hasDep(plan, "m.entry", "src") {
		t.Fatal("manager entry must follow src")
	}
	if !hasDep(plan, "f", "m.entry") || !hasDep(plan, "g", "f") {
		t.Fatal("subgraph not gated by entry")
	}
	if !hasDep(plan, "m.exit", "g") {
		t.Fatal("exit must wait for subgraph")
	}
	if !hasDep(plan, "snk", "m.exit") {
		t.Fatal("successor must wait for manager exit")
	}
}

func TestOptionTogglesPlan(t *testing.T) {
	p := managerProgram(false)
	off, err := BuildPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if taskByName(off, "g") != nil {
		t.Fatal("disabled option's component present")
	}
	on, err := BuildPlan(p, map[string]bool{"opt": true})
	if err != nil {
		t.Fatal(err)
	}
	if taskByName(on, "g") == nil {
		t.Fatal("enabled option's component absent")
	}
	if len(on.Tasks) != len(off.Tasks)+1 {
		t.Fatalf("on=%d off=%d tasks", len(on.Tasks), len(off.Tasks))
	}
	if _, err := BuildPlan(p, map[string]bool{"nosuch": true}); err == nil {
		t.Fatal("unknown option accepted")
	}
}

func TestEmptyManagerStillHasEntryExit(t *testing.T) {
	b := NewBuilder("empty")
	b.Queue("q")
	b.Body(b.Manager("m", "q", nil))
	plan, err := BuildPlan(b.MustProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 2 {
		t.Fatalf("%d tasks", len(plan.Tasks))
	}
	if !hasDep(plan, "m.exit", "m.entry") {
		t.Fatal("exit must depend on entry when subgraph is empty")
	}
}

func TestDisabledOptionInSeqBridges(t *testing.T) {
	// seq(src, option(off), snk): snk must depend directly on src.
	b := NewBuilder("bridge")
	b.Stream("a")
	b.Queue("q")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Manager("m", "q", nil,
			b.Option("opt", false,
				b.Component("g", "filter", Ports{"in": "a", "out": "a"}, nil),
			),
		),
		b.Component("snk", "sink", Ports{"in": "a"}, nil),
	)
	plan, err := BuildPlan(b.MustProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDep(plan, "m.exit", "m.entry") {
		t.Fatal("empty managed subgraph must bridge entry->exit")
	}
	if !hasDep(plan, "snk", "m.exit") || !hasDep(plan, "m.entry", "src") {
		t.Fatal("bridge broken")
	}
}

// TestSuccsMatchesDeps: Succs is the exact inverse of Preds, and the
// stored direct successors the exact inverse of the stored direct deps,
// on a plan with a manager and on one with a join.
func TestSuccsMatchesDeps(t *testing.T) {
	for _, prog := range []*Program{managerProgram(true), pluralBoundaryProgram()} {
		plan, err := BuildPlan(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		type edge [2]int
		for _, view := range []struct {
			name        string
			preds, succ func(id int) []int
		}{
			{"expanded", plan.Preds, plan.Succs},
			{"direct", func(id int) []int { return plan.Tasks[id].DirectDeps }, plan.DirectSuccs},
		} {
			fwd, back := map[edge]bool{}, map[edge]bool{}
			for _, tk := range plan.Tasks {
				for _, d := range view.preds(tk.ID) {
					fwd[edge{d, tk.ID}] = true
				}
				for _, s := range view.succ(tk.ID) {
					back[edge{tk.ID, s}] = true
				}
			}
			if len(fwd) == 0 || len(fwd) != len(back) {
				t.Fatalf("%s %s: %d dep edges, %d succ edges", prog.Name, view.name, len(fwd), len(back))
			}
			for e := range fwd {
				if !back[e] {
					t.Fatalf("%s %s: succ edge %d->%d missing", prog.Name, view.name, e[0], e[1])
				}
			}
		}
	}
}

// pluralBoundaryProgram is src, then three tasks in parallel, then two,
// then a sink: the 3 -> 2 boundary is plural on both sides.
func pluralBoundaryProgram() *Program {
	b := NewBuilder("plural")
	b.Stream("a").Stream("b")
	filter := func(name string) *Node {
		return b.Component(name, "filter", Ports{"in": "a", "out": "b"}, nil)
	}
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Parallel(ShapeTask, 0, filter("l1"), filter("l2"), filter("l3")),
		b.Parallel(ShapeTask, 0, filter("r1"), filter("r2")),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

// TestPluralBoundaryIsOneJoin: the rule. 1 -> 3 and 2 -> 1 keep direct
// edges, 3 -> 2 becomes one join of five records standing for six
// dependencies; task IDs and the task count are what they would be
// without it.
func TestPluralBoundaryIsOneJoin(t *testing.T) {
	plan, err := BuildPlan(pluralBoundaryProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 7 || len(plan.Joins) != 1 {
		t.Fatalf("%d tasks, %d joins; want 7 and 1", len(plan.Tasks), len(plan.Joins))
	}
	if direct, in, out := plan.DepRecords(); direct != 5 || in != 3 || out != 2 {
		t.Fatalf("records: %d direct, %d in, %d out; want 5, 3, 2", direct, in, out)
	}
	for _, l := range []string{"l1", "l2", "l3"} {
		if tk := taskByName(plan, l); tk.Feeds != 0 || tk.WaitsOn != NoJoin || len(plan.DirectSuccs(tk.ID)) != 0 {
			t.Fatalf("%s: feeds %d, waits on %d, %d direct successors", l, tk.Feeds, tk.WaitsOn, len(plan.DirectSuccs(tk.ID)))
		}
		for _, r := range []string{"r1", "r2"} {
			if !hasDep(plan, r, l) {
				t.Fatalf("%s must run after %s", r, l)
			}
		}
	}
	for _, r := range []string{"r1", "r2"} {
		if tk := taskByName(plan, r); tk.WaitsOn != 0 || tk.Feeds != NoJoin || len(tk.DirectDeps) != 0 {
			t.Fatalf("%s: waits on %d, feeds %d, %d direct deps", r, tk.WaitsOn, tk.Feeds, len(tk.DirectDeps))
		}
	}
	if !hasDep(plan, "l2", "src") || !hasDep(plan, "snk", "r1") || !hasDep(plan, "snk", "r2") {
		t.Fatal("singular boundaries lost their direct edges")
	}
}

// TestValidateRejectsBrokenJoins corrupts a valid plan one invariant at
// a time.
func TestValidateRejectsBrokenJoins(t *testing.T) {
	for name, corrupt := range map[string]func(p *Plan){
		"duplicate direct dep":    func(p *Plan) { tk := taskByName(p, "snk"); tk.DirectDeps = append(tk.DirectDeps, tk.DirectDeps[1]) },
		"join index out of range": func(p *Plan) { taskByName(p, "snk").Feeds = 3 },
		"join and direct deps":    func(p *Plan) { taskByName(p, "r1").DirectDeps = []int{0} },
		"join and direct succs":   func(p *Plan) { id := taskByName(p, "l1").ID; p.directSuccs[id] = []int{6} },
		"unlisted feeder":         func(p *Plan) { taskByName(p, "src").Feeds = 0 },
		"unlisted entry":          func(p *Plan) { tk := taskByName(p, "snk"); tk.DirectDeps, tk.WaitsOn = nil, 0 },
		"singular join":           func(p *Plan) { p.Joins[0].Entries = p.Joins[0].Entries[:1]; taskByName(p, "r2").WaitsOn = NoJoin },
		"feeders out of order":    func(p *Plan) { f := p.Joins[0].Feeders; f[0], f[1] = f[1], f[0] },
		"entry before a feeder":   func(p *Plan) { p.Joins[0].Feeders, p.Joins[0].Entries = p.Joins[0].Entries, p.Joins[0].Feeders[:2] },
	} {
		plan, err := BuildPlan(pluralBoundaryProgram(), nil)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(plan)
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDuplicateInstanceNameRejected(t *testing.T) {
	b := NewBuilder("dup")
	b.Stream("a")
	prog := &Program{Name: "dup", Streams: []StreamDecl{{Name: "a"}},
		Root: &Node{Kind: KindSeq, Children: []*Node{
			b.Component("x", "src", Ports{"out": "a"}, nil),
			b.Component("x", "sink", Ports{"in": "a"}, nil),
		}}}
	if _, err := BuildPlan(prog, nil); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestCriticalPathAndWork(t *testing.T) {
	b := NewBuilder("cp")
	b.Stream("a").Stream("b").Stream("c")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Parallel(ShapeTask, 0,
			b.Component("f1", "filter", Ports{"in": "a", "out": "b"}, nil),
			b.Component("f2", "filter", Ports{"in": "a", "out": "c"}, nil),
		),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	plan, _ := BuildPlan(b.MustProgram(), nil)
	cost := func(tk *Task) int64 {
		switch tk.Name {
		case "src":
			return 10
		case "f1":
			return 100
		case "f2":
			return 30
		case "snk":
			return 5
		}
		return 0
	}
	if cp := plan.CriticalPath(cost); cp != 115 {
		t.Fatalf("critical path %d, want 115", cp)
	}
	if w := plan.TotalWork(cost); w != 145 {
		t.Fatalf("total work %d, want 145", w)
	}

	// Across a plural boundary the path runs through the join: the
	// slowest of the left group, then the slowest of the right.
	plural, _ := BuildPlan(pluralBoundaryProgram(), nil)
	costs := map[string]int64{"src": 10, "l1": 20, "l2": 70, "l3": 40, "r1": 8, "r2": 50, "snk": 5}
	cost = func(tk *Task) int64 { return costs[tk.Name] }
	if cp := plural.CriticalPath(cost); cp != 10+70+50+5 {
		t.Fatalf("critical path through the join %d, want 135", cp)
	}
	if w := plural.TotalWork(cost); w != 203 {
		t.Fatalf("total work %d, want 203", w)
	}
}

func TestValidateWithCatalog(t *testing.T) {
	if err := chainProgram().Validate(testCatalog); err != nil {
		t.Fatal(err)
	}
	// Unknown class.
	b := NewBuilder("bad")
	b.Stream("a")
	b.Body(b.Component("x", "nosuch", Ports{"out": "a"}, nil))
	if err := b.MustProgram().Validate(testCatalog); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Missing port.
	b2 := NewBuilder("bad2")
	b2.Stream("a")
	b2.Body(
		b2.Component("x", "src", Ports{}, nil),
		b2.Component("y", "sink", Ports{"in": "a"}, nil),
	)
	if err := b2.MustProgram().Validate(testCatalog); err == nil {
		t.Fatal("missing port accepted")
	}
	// Extra port.
	b3 := NewBuilder("bad3")
	b3.Stream("a")
	b3.Body(
		b3.Component("x", "src", Ports{"out": "a", "bogus": "a"}, nil),
		b3.Component("y", "sink", Ports{"in": "a"}, nil),
	)
	if err := b3.MustProgram().Validate(testCatalog); err == nil {
		t.Fatal("extra port accepted")
	}
	// Stream without reader.
	b4 := NewBuilder("bad4")
	b4.Stream("a").Stream("orphan")
	b4.Body(
		b4.Component("x", "src", Ports{"out": "a"}, nil),
		b4.Component("w", "src", Ports{"out": "orphan"}, nil),
		b4.Component("y", "sink", Ports{"in": "a"}, nil),
	)
	if err := b4.MustProgram().Validate(testCatalog); err == nil {
		t.Fatal("reader-less stream accepted")
	}
}

func TestValidateStructuralErrors(t *testing.T) {
	// Undeclared stream reference.
	p := &Program{Name: "x", Root: &Node{Kind: KindSeq, Children: []*Node{
		{Kind: KindComponent, Name: "c", Class: "src", Ports: map[string]string{"out": "nosuch"}},
	}}}
	if err := p.Validate(nil); err == nil {
		t.Fatal("undeclared stream accepted")
	}
	// Option outside manager.
	p2 := &Program{Name: "x", Root: &Node{Kind: KindSeq, Children: []*Node{
		{Kind: KindOption, Name: "o"},
	}}}
	if err := p2.Validate(nil); err == nil {
		t.Fatal("bare option accepted")
	}
	// Manager binding to foreign option.
	p3 := &Program{Name: "x",
		Queues: []string{"q"},
		Root: &Node{Kind: KindSeq, Children: []*Node{
			{Kind: KindManager, Name: "m", Queue: "q",
				Bindings: []EventBinding{On("e", ActionToggle, "foreign")}},
		}}}
	if err := p3.Validate(nil); err == nil {
		t.Fatal("foreign option binding accepted")
	}
	// Nil root.
	if err := (&Program{Name: "x"}).Validate(nil); err == nil {
		t.Fatal("nil root accepted")
	}
	// Duplicate stream.
	p4 := &Program{Name: "x", Streams: []StreamDecl{{Name: "s"}, {Name: "s"}},
		Root: &Node{Kind: KindSeq}}
	if err := p4.Validate(nil); err == nil {
		t.Fatal("duplicate stream accepted")
	}
	// Forward to undeclared queue.
	p5 := &Program{Name: "x",
		Queues: []string{"q"},
		Root: &Node{Kind: KindSeq, Children: []*Node{
			{Kind: KindManager, Name: "m", Queue: "q",
				Bindings: []EventBinding{On("e", ActionForward, "nosuch")}},
		}}}
	if err := p5.Validate(nil); err == nil {
		t.Fatal("forward to undeclared queue accepted")
	}
}

func TestConfigKeyStable(t *testing.T) {
	a := ConfigKey(map[string]bool{"b": true, "a": false})
	b := ConfigKey(map[string]bool{"a": false, "b": true})
	if a != b {
		t.Fatalf("keys differ: %q vs %q", a, b)
	}
	if a != "a=0;b=1;" {
		t.Fatalf("unexpected key %q", a)
	}
	if ConfigKey(nil) != "" {
		t.Fatal("empty key")
	}
}

func TestProgramStringDump(t *testing.T) {
	s := managerProgram(true).String()
	for _, want := range []string{"program mgr", "stream a", "queue ui",
		"manager m queue=ui", "on toggle -> toggle option=opt",
		"option opt default=on", "component src class=src out=a"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}

func TestParseShapeAndAction(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Shape
	}{{"task", ShapeTask}, {"", ShapeTask}, {"slice", ShapeSlice}, {"crossdep", ShapeCrossdep}} {
		got, err := ParseShape(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseShape(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseShape("spiral"); err == nil {
		t.Error("bad shape accepted")
	}
	for _, c := range []struct {
		in   string
		want ActionKind
	}{{"enable", ActionEnable}, {"disable", ActionDisable}, {"toggle", ActionToggle},
		{"forward", ActionForward}, {"reconfig", ActionReconfig}} {
		got, err := ParseAction(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseAction(%q) = %v, %v", c.in, got, err)
		}
		// Round trip through String.
		got2, err := ParseAction(got.String())
		if err != nil || got2 != got {
			t.Errorf("action %v does not round-trip", got)
		}
	}
	if _, err := ParseAction("explode"); err == nil {
		t.Error("bad action accepted")
	}
}

func TestComponentsAndOptionsAccessors(t *testing.T) {
	p := managerProgram(false)
	comps := p.Components()
	if len(comps) != 4 {
		t.Fatalf("%d components", len(comps))
	}
	opts := p.Options()
	if on, ok := opts["opt"]; !ok || on {
		t.Fatalf("options = %v", opts)
	}
	if len(p.Managers()) != 1 || p.Managers()[0].Name != "m" {
		t.Fatal("managers accessor wrong")
	}
	names := p.StreamNames()
	if len(names) != 3 || names[0] != "a" {
		t.Fatalf("stream names %v", names)
	}
}

func TestNestedSliceNaming(t *testing.T) {
	b := NewBuilder("nested")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "src", Ports{"out": "a"}, nil),
		b.Parallel(ShapeSlice, 2,
			b.Parallel(ShapeSlice, 2,
				b.Component("f", "filter", Ports{"in": "a", "out": "b"}, nil),
			),
		),
		b.Component("snk", "sink", Ports{"in": "b"}, nil),
	)
	plan, err := BuildPlan(b.MustProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 4 + 1 tasks, with composite suffixes.
	if len(plan.Tasks) != 6 {
		t.Fatalf("%d tasks", len(plan.Tasks))
	}
	if taskByName(plan, "f#0#1") == nil || taskByName(plan, "f#1#0") == nil {
		names := make([]string, len(plan.Tasks))
		for i, tk := range plan.Tasks {
			names[i] = tk.Name
		}
		t.Fatalf("nested naming wrong: %v", names)
	}
}
