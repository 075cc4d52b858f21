package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomTree builds a random SP tree from a byte script; it is used by
// the property tests to fuzz BuildPlan's invariants.
type treeGen struct {
	script []byte
	pos    int
	nameID int
	b      *Builder
	stream string
	// managed adds managers and options to the shapes node draws from
	// (queue "q" must be declared); options records the ones generated.
	// inCross is set while generating a crossdep parblock and keeps
	// options out of it: BuildPlan rejects a parblock that a disabled
	// option leaves empty.
	managed bool
	inCross bool
	options []string
}

func (g *treeGen) next() byte {
	if g.pos >= len(g.script) {
		return 0
	}
	v := g.script[g.pos]
	g.pos++
	return v
}

func (g *treeGen) component() *Node {
	g.nameID++
	return g.b.Component(fmt.Sprintf("c%d", g.nameID), "filter",
		Ports{"in": g.stream, "out": g.stream}, nil)
}

// node produces a random subtree of bounded depth.
func (g *treeGen) node(depth int) *Node {
	if depth <= 0 {
		return g.component()
	}
	shapes := byte(5)
	if g.managed {
		shapes = 7
	}
	switch g.next() % shapes {
	case 0:
		return g.component()
	case 1: // seq of 1..3
		n := int(g.next()%3) + 1
		kids := make([]*Node, n)
		for i := range kids {
			kids[i] = g.node(depth - 1)
		}
		return g.b.Seq(kids...)
	case 2: // task par of 1..3
		n := int(g.next()%3) + 1
		kids := make([]*Node, n)
		for i := range kids {
			kids[i] = g.node(depth - 1)
		}
		return g.b.Parallel(ShapeTask, 0, kids...)
	case 3: // slice 1..4
		return g.b.Parallel(ShapeSlice, int(g.next()%4)+1, g.node(depth-1))
	case 5: // manager around 0..2 children (0: entry bridges to exit)
		g.nameID++
		name := fmt.Sprintf("m%d", g.nameID)
		kids := make([]*Node, g.next()%3)
		for i := range kids {
			kids[i] = g.node(depth - 1)
		}
		return g.b.Manager(name, "q", nil, kids...)
	case 6: // option, default state from the script
		if g.inCross {
			return g.component()
		}
		g.nameID++
		name := fmt.Sprintf("o%d", g.nameID)
		g.options = append(g.options, name)
		return g.b.Option(name, g.next()%2 == 0, g.node(depth-1))
	default: // crossdep with 1..2 blocks, 1..4 copies
		nb := int(g.next()%2) + 1
		kids := make([]*Node, nb)
		outer := g.inCross
		g.inCross = true
		for i := range kids {
			kids[i] = g.node(depth - 1)
		}
		g.inCross = outer
		return g.b.Parallel(ShapeCrossdep, int(g.next()%4)+1, kids...)
	}
}

// buildRandomProgram turns a fuzz script into a program.
func buildRandomProgram(script []byte) *Program {
	b := NewBuilder("fuzz")
	b.Stream("s")
	g := &treeGen{script: script, b: b, stream: "s"}
	root := g.node(3)
	b.Body(b.Component("src", "src", Ports{"out": "s"}, nil), root)
	return b.prog // skip validation; BuildPlan re-checks what matters here
}

// TestPlanInvariantsHoldForRandomTrees checks, for arbitrary SP trees:
// IDs are topologically ordered, Succs is the exact inverse of Preds,
// every non-entry task has at least one predecessor, and the DAG is
// connected to the source.
func TestPlanInvariantsHoldForRandomTrees(t *testing.T) {
	f := func(script []byte) bool {
		prog := buildRandomProgram(script)
		plan, err := BuildPlan(prog, nil)
		if err != nil {
			// Random trees are structurally valid by construction; any
			// error is a real failure.
			t.Logf("BuildPlan: %v", err)
			return false
		}
		if err := plan.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		// Succs is the exact inverse of Preds.
		fwd := map[[2]int]bool{}
		for _, tk := range plan.Tasks {
			for _, d := range plan.Preds(tk.ID) {
				fwd[[2]int{d, tk.ID}] = true
			}
		}
		n := 0
		for _, tk := range plan.Tasks {
			for _, to := range plan.Succs(tk.ID) {
				if !fwd[[2]int{tk.ID, to}] {
					t.Logf("succ edge %d->%d has no dep", tk.ID, to)
					return false
				}
				n++
			}
		}
		if n != len(fwd) {
			t.Logf("edge counts differ")
			return false
		}
		// Exactly one entry (the source): all other tasks reachable.
		entries := 0
		for _, tk := range plan.Tasks {
			if len(plan.Preds(tk.ID)) == 0 {
				entries++
			}
		}
		if entries != 1 {
			t.Logf("%d entry tasks, want 1 (the source)", entries)
			return false
		}
		// Critical path with unit costs is at most the task count and at
		// least 2 (source + something).
		cp := plan.CriticalPath(func(*Task) int64 { return 1 })
		if cp < 2 || cp > int64(len(plan.Tasks)) {
			t.Logf("critical path %d outside [2,%d]", cp, len(plan.Tasks))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// allPairs is the plan as it was before joins existed, kept as a test
// oracle: the same walk over the tree in the same order (so task IDs and
// names must agree), with every sequence boundary flattened into exit x
// entry edges. preds[id] is task id's predecessor set.
type allPairs struct {
	names []string
	preds []map[int]bool
}

func (r *allPairs) task(name string) []int {
	r.names = append(r.names, name)
	r.preds = append(r.preds, map[int]bool{})
	return []int{len(r.names) - 1}
}

func (r *allPairs) order(before, after []int) {
	for _, a := range after {
		for _, b := range before {
			r.preds[a][b] = true
		}
	}
}

func (r *allPairs) seq(children []*Node, suffix string, on map[string]bool) (entries, exits []int) {
	for _, c := range children {
		e, x := r.walk(c, suffix, on)
		if len(e) == 0 {
			continue
		}
		r.order(exits, e)
		if entries == nil {
			entries = e
		}
		exits = x
	}
	return entries, exits
}

func (r *allPairs) walk(n *Node, suffix string, on map[string]bool) (entries, exits []int) {
	switch n.Kind {
	case KindComponent:
		id := r.task(n.Name + suffix)
		return id, id
	case KindSeq:
		return r.seq(n.Children, suffix, on)
	case KindOption:
		if !on[n.Name] {
			return nil, nil
		}
		return r.seq(n.Children, suffix, on)
	case KindManager:
		entry := r.task(n.Name + suffix + ".entry")
		e, x := r.seq(n.Children, suffix, on)
		exit := r.task(n.Name + suffix + ".exit")
		r.order(entry, e)
		if len(x) == 0 {
			x = entry
		}
		r.order(x, exit)
		return entry, exit
	}
	switch n.Shape { // KindPar
	case ShapeTask:
		for _, c := range n.Children {
			e, x := r.walk(c, suffix, on)
			entries, exits = append(entries, e...), append(exits, x...)
		}
	case ShapeSlice:
		for i := 0; i < n.N; i++ {
			e, x := r.walk(n.Children[0], fmt.Sprintf("%s#%d", suffix, i), on)
			entries, exits = append(entries, e...), append(exits, x...)
		}
	case ShapeCrossdep:
		var prev [][]int // exits of each copy of the previous parblock
		for bi, blk := range n.Children {
			cur := make([][]int, n.N)
			for i := range cur {
				e, x := r.walk(blk, fmt.Sprintf("%s#%d", suffix, i), on)
				cur[i] = x
				if bi == 0 {
					entries = append(entries, e...)
				}
				for j := i - 1; bi > 0 && j <= i+1; j++ {
					if j >= 0 && j < n.N {
						r.order(prev[j], e)
					}
				}
			}
			prev = cur
		}
		for _, x := range prev {
			exits = append(exits, x...)
		}
	}
	return entries, exits
}

// criticalPath is Plan.CriticalPath over the oracle's edge sets.
func (r *allPairs) criticalPath(cost func(id int) int64) int64 {
	finish := make([]int64, len(r.names))
	var longest int64
	for id := range r.names {
		var start int64
		for d := range r.preds[id] {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[id] = start + cost(id)
		if finish[id] > longest {
			longest = finish[id]
		}
	}
	return longest
}

// TestJoinPlanEqualsAllPairsReference: over random SP trees — nested
// slice, task and crossdep groups including n = 1, managers (empty ones
// too), options switched on and off — the plan with joins is the
// all-pairs plan: same tasks under the same IDs, the same predecessor
// set for every task once joins are expanded, none listed twice, and
// the same critical path and work under unit and random costs. Also the
// shape of the joins themselves: every task is in at most one feeder
// list and one entry list, feeders precede entries, and a join stands
// only where both sides are plural.
func TestJoinPlanEqualsAllPairsReference(t *testing.T) {
	joins, saved := 0, 0
	f := func(script []byte, seed int64) bool {
		b := NewBuilder("fuzz")
		b.Stream("s")
		b.Queue("q")
		g := &treeGen{script: script, b: b, stream: "s", managed: true}
		root := g.node(4)
		b.Body(b.Component("src", "src", Ports{"out": "s"}, nil), root)
		rng := rand.New(rand.NewSource(seed))
		on := map[string]bool{}
		for _, o := range g.options {
			on[o] = rng.Intn(3) > 0
		}
		plan, err := BuildPlan(b.prog, on)
		if err != nil {
			t.Logf("BuildPlan: %v", err)
			return false
		}
		if err := plan.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		ref := &allPairs{}
		ref.walk(b.prog.Root, "", on)
		if len(plan.Tasks) != len(ref.names) {
			t.Logf("%d tasks, reference has %d", len(plan.Tasks), len(ref.names))
			return false
		}
		for id, tk := range plan.Tasks {
			if tk.ID != id || tk.Name != ref.names[id] {
				t.Logf("task %d is %s (id %d), reference has %s", id, tk.Name, tk.ID, ref.names[id])
				return false
			}
			preds := plan.Preds(id)
			if len(preds) != len(ref.preds[id]) {
				t.Logf("%s: %d predecessors %v, reference has %d", tk.Name, len(preds), preds, len(ref.preds[id]))
				return false
			}
			for _, d := range preds {
				if !ref.preds[id][d] {
					t.Logf("%s: predecessor %d not in the reference", tk.Name, d)
					return false
				}
			}
			saved += len(preds)
		}
		direct, in, out := plan.DepRecords()
		saved -= direct + in + out
		feeds, waits := map[int]int{}, map[int]int{}
		for _, jn := range plan.Joins {
			joins++
			if len(jn.Feeders) < 2 || len(jn.Entries) < 2 {
				t.Logf("join %d -> %d is not plural on both sides", len(jn.Feeders), len(jn.Entries))
				return false
			}
			for _, id := range jn.Feeders {
				feeds[id]++
				if id >= jn.Entries[0] {
					t.Logf("feeder %d not before entry %d", id, jn.Entries[0])
					return false
				}
			}
			for _, id := range jn.Entries {
				waits[id]++
			}
		}
		for id := range plan.Tasks {
			if feeds[id] > 1 || waits[id] > 1 {
				t.Logf("task %d feeds %d joins and waits on %d", id, feeds[id], waits[id])
				return false
			}
		}
		costs := make([]int64, len(plan.Tasks))
		for _, unit := range []bool{true, false} {
			var work int64
			for i := range costs {
				costs[i] = 1
				if !unit {
					costs[i] = rng.Int63n(1000)
				}
				work += costs[i]
			}
			cost := func(tk *Task) int64 { return costs[tk.ID] }
			want := ref.criticalPath(func(id int) int64 { return costs[id] })
			if cp := plan.CriticalPath(cost); cp != want {
				t.Logf("critical path %d, reference %d (unit costs: %v)", cp, want, unit)
				return false
			}
			if w := plan.TotalWork(cost); w != work {
				t.Logf("total work %d, want %d", w, work)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if joins == 0 || saved <= 0 {
		t.Fatalf("the random trees produced %d joins saving %d records: the property was not exercised", joins, saved)
	}
	t.Logf("%d joins, %d dependency records saved against all-pairs", joins, saved)
}

// TestOptionSubsetProperty: for any tree, the plan with an option
// disabled is a strict subset (by task name) of the plan with it
// enabled.
func TestOptionSubsetProperty(t *testing.T) {
	f := func(script []byte, defaultOn bool) bool {
		b := NewBuilder("fuzz")
		b.Stream("s")
		b.Queue("q")
		g := &treeGen{script: script, b: b, stream: "s"}
		inner := g.node(2)
		b.Body(
			b.Component("src", "src", Ports{"out": "s"}, nil),
			b.Manager("m", "q", nil,
				b.Option("opt", defaultOn, inner),
			),
		)
		prog := b.prog
		on, err := BuildPlan(prog, map[string]bool{"opt": true})
		if err != nil {
			return false
		}
		off, err := BuildPlan(prog, map[string]bool{"opt": false})
		if err != nil {
			return false
		}
		names := map[string]bool{}
		for _, tk := range on.Tasks {
			names[tk.Name] = true
		}
		for _, tk := range off.Tasks {
			if !names[tk.Name] {
				t.Logf("task %s only exists with option off", tk.Name)
				return false
			}
		}
		if len(off.Tasks) >= len(on.Tasks) {
			t.Logf("disabling the option did not shrink the plan")
			return false
		}
		// Every task of the enabled-only set carries the option label.
		offNames := map[string]bool{}
		for _, tk := range off.Tasks {
			offNames[tk.Name] = true
		}
		for _, tk := range on.Tasks {
			if !offNames[tk.Name] && !slices.Contains(tk.Options, "opt") {
				t.Logf("task %s missing option label", tk.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedProgramsHaveNoOrphanStreams: every random tree passes
// catalog validation (all streams written and read), and declaring an
// extra stream no component touches is always rejected.
func TestGeneratedProgramsHaveNoOrphanStreams(t *testing.T) {
	f := func(script []byte) bool {
		prog := buildRandomProgram(script)
		if err := prog.Validate(testCatalog); err != nil {
			t.Logf("valid tree rejected: %v", err)
			return false
		}
		// The same tree with an orphan stream must fail validation.
		orphaned := buildRandomProgram(script)
		orphaned.Streams = append(orphaned.Streams, StreamDecl{Name: "orphan"})
		if err := orphaned.Validate(testCatalog); err == nil {
			t.Logf("orphan stream accepted")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossdepEdgesMatchFigure5: for a crossdep group of B parblocks
// replicated n times, the plan must contain exactly the paper's
// Figure-5 edges — copy i of parblock b depends on copies i-1, i, i+1
// of parblock b-1 (clipped to the group) and nothing else.
func TestCrossdepEdgesMatchFigure5(t *testing.T) {
	f := func(nbRaw, nRaw uint8) bool {
		nb := int(nbRaw%3) + 2 // 2..4 parblocks
		n := int(nRaw%4) + 1   // 1..4 copies
		b := NewBuilder("xdep")
		b.Stream("s")
		blocks := make([]*Node, nb)
		for bi := range blocks {
			blocks[bi] = b.Component(fmt.Sprintf("blk%d", bi), "filter",
				Ports{"in": "s", "out": "s"}, nil)
		}
		b.Body(
			b.Component("src", "src", Ports{"out": "s"}, nil),
			b.Parallel(ShapeCrossdep, n, blocks...),
		)
		plan, err := BuildPlan(b.prog, nil)
		if err != nil {
			t.Logf("BuildPlan: %v", err)
			return false
		}
		byName := map[string]*Task{}
		for _, tk := range plan.Tasks {
			byName[tk.Name] = tk
		}
		src := byName["src"]
		for bi := 0; bi < nb; bi++ {
			for i := 0; i < n; i++ {
				tk := byName[fmt.Sprintf("blk%d#%d", bi, i)]
				if tk == nil {
					t.Logf("missing copy blk%d#%d", bi, i)
					return false
				}
				if tk.Slice != i || tk.NSlices != n {
					t.Logf("%s: slice=%d/%d, want %d/%d", tk.Name, tk.Slice, tk.NSlices, i, n)
					return false
				}
				want := map[int]bool{}
				if bi == 0 {
					want[src.ID] = true
				} else {
					for _, j := range []int{i - 1, i, i + 1} {
						if j >= 0 && j < n {
							want[byName[fmt.Sprintf("blk%d#%d", bi-1, j)].ID] = true
						}
					}
				}
				got := map[int]bool{}
				if tk.WaitsOn != NoJoin || tk.Feeds != NoJoin {
					t.Logf("%s: crossdep edges must stay direct", tk.Name)
					return false
				}
				for _, d := range tk.DirectDeps {
					got[d] = true
				}
				if len(got) != len(want) {
					t.Logf("%s: %d deps, want %d", tk.Name, len(got), len(want))
					return false
				}
				for d := range want {
					if !got[d] {
						t.Logf("%s: missing dep on task %d", tk.Name, d)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOptionBindingScopeEnforced: whatever the option's body shape, a
// manager may only bind actions to options inside its own subtree —
// a binding that reaches into a sibling manager's option is rejected,
// while the same binding on the owning manager passes.
func TestOptionBindingScopeEnforced(t *testing.T) {
	f := func(script []byte, kindRaw uint8) bool {
		kind := []ActionKind{ActionEnable, ActionDisable, ActionToggle}[kindRaw%3]
		build := func(bindOn string) *Program {
			b := NewBuilder("scope")
			b.Stream("s")
			b.Queue("q1").Queue("q2")
			g := &treeGen{script: script, b: b, stream: "s"}
			var m1Binds, m2Binds []EventBinding
			bind := EventBinding{Event: "e", Actions: []EventAction{{Kind: kind, Option: "o2"}}}
			if bindOn == "m1" {
				m1Binds = append(m1Binds, bind)
			} else {
				m2Binds = append(m2Binds, bind)
			}
			b.Body(
				b.Component("src", "src", Ports{"out": "s"}, nil),
				b.Manager("m1", "q1", m1Binds, g.node(2)),
				b.Manager("m2", "q2", m2Binds, b.Option("o2", true, g.node(2))),
			)
			return b.prog
		}
		if err := build("m1").Validate(nil); err == nil {
			t.Logf("binding to a sibling manager's option accepted")
			return false
		}
		if err := build("m2").Validate(nil); err != nil {
			t.Logf("binding to own option rejected: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
