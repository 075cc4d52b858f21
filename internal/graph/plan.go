package graph

import "fmt"

// Role distinguishes what a task does when the runtime executes it.
type Role int

// Task roles.
const (
	RoleComponent    Role = iota // run a component's iteration
	RoleManagerEntry             // manager check at subgraph entrance
	RoleManagerExit              // manager check at subgraph exit
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleComponent:
		return "component"
	case RoleManagerEntry:
		return "manager-entry"
	case RoleManagerExit:
		return "manager-exit"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Task is one schedulable job of an iteration.
type Task struct {
	ID   int
	Name string // unique instance name, e.g. "idctY#2" for slice copy 2
	Role Role

	// Component tasks.
	Class   string
	Node    string // graph node name without slice suffix (keys per-node data, e.g. solved format params)
	Params  map[string]string
	Ports   map[string]string
	Slice   int // slice index within the data-parallel group (0 if none)
	NSlices int // group size (1 if not replicated)

	// Manager tasks.
	Manager string // manager instance name

	// Options lists the enclosing option subgraphs, outermost first;
	// empty when the task is unconditional. The task is part of a
	// configuration exactly when every one of them is enabled there.
	Options []string

	// Scope lists the enclosing managers, outermost first. A manager's
	// reconfiguration requests are broadcast to every component task
	// whose Scope contains it.
	Scope []string

	// Intra-iteration dependencies: this task runs only after every task
	// in DirectDeps, and every feeder of join WaitsOn, has completed in
	// the same iteration. A task gets its dependencies at exactly one
	// place in the tree, so it has direct edges or a join, never both;
	// likewise it is followed by direct successors or feeds one join.
	// Plan.Preds and Plan.Succs give the whole relation, joins expanded.
	DirectDeps []int
	WaitsOn    int // index into Plan.Joins, or NoJoin
	Feeds      int // index into Plan.Joins, or NoJoin
}

// NoJoin is the Task.WaitsOn / Task.Feeds value of a task that waits on
// (feeds) no join.
const NoJoin = -1

// Join is the synchronisation point between two consecutive groups of a
// sequence when both sides are plural: every entry runs after every
// feeder. It stands for len(Feeders) x len(Entries) dependencies in
// len(Feeders) + len(Entries) records. A join is not a task: it has no
// ID, runs nothing and is invisible in job counts and traces. Both lists
// are in ascending ID order and every feeder precedes every entry.
type Join struct {
	Feeders []int // exit tasks of the earlier group
	Entries []int // entry tasks of the later group
}

// Plan is the flattened task DAG of one iteration under a given
// configuration (set of enabled options). Tasks are stored in a valid
// topological order: every dependency of Tasks[i] has a smaller ID.
type Plan struct {
	Tasks   []*Task
	Joins   []Join
	Enabled map[string]bool // option states this plan was built with

	directSuccs [][]int // reverse of Task.DirectDeps, see DirectSuccs
	components  []*Task // see ComponentTasks
}

// Preds returns the tasks that must complete before task id runs, in
// ascending ID order: its direct dependencies, or the feeders of the
// join it waits on. The slice is shared: callers must not modify it.
func (p *Plan) Preds(id int) []int {
	t := p.Tasks[id]
	if t.WaitsOn != NoJoin {
		return p.Joins[t.WaitsOn].Feeders
	}
	return t.DirectDeps
}

// Succs returns the tasks waiting on task id (the reverse of Preds), in
// ascending ID order. The slice is shared: callers must not modify it.
func (p *Plan) Succs(id int) []int {
	if j := p.Tasks[id].Feeds; j != NoJoin {
		return p.Joins[j].Entries
	}
	return p.directSuccs[id]
}

// DirectSuccs returns the tasks that list task id in their DirectDeps,
// in ascending ID order; the scheduler releases these itself and leaves
// the rest to the join the task feeds. Shared: callers must not modify.
func (p *Plan) DirectSuccs(id int) []int { return p.directSuccs[id] }

// DepRecords counts what the plan stores to represent its dependency
// relation: direct edges, and the feeder and entry lists of its joins.
func (p *Plan) DepRecords() (direct, joinIn, joinOut int) {
	for _, t := range p.Tasks {
		direct += len(t.DirectDeps)
	}
	for _, j := range p.Joins {
		joinIn += len(j.Feeders)
		joinOut += len(j.Entries)
	}
	return direct, joinIn, joinOut
}

// ConfigKey returns a stable string identifying the option states,
// used by the runtime to cache plans per configuration.
func (p *Plan) ConfigKey() string { return ConfigKey(p.Enabled) }

// ConfigKey renders an option-state map as a stable string.
func ConfigKey(enabled map[string]bool) string {
	keys := make([]string, 0, len(enabled))
	for k := range enabled {
		keys = append(keys, k)
	}
	// insertion sort: tiny maps
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	s := ""
	for _, k := range keys {
		if enabled[k] {
			s += k + "=1;"
		} else {
			s += k + "=0;"
		}
	}
	return s
}

// planBuilder carries state while flattening the tree.
type planBuilder struct {
	plan  *Plan
	names map[string]bool
}

// sliceCtx describes the build context of a subtree: which
// data-parallel copy this is, how many copies exist, and the enclosing
// options and managers.
type sliceCtx struct {
	idx, n   int
	suffix   string
	options  []string
	managers []string
}

var noSlice = sliceCtx{idx: 0, n: 1}

// BuildPlan flattens the program into the task DAG for one iteration,
// honouring the given option states (options absent from enabled use
// their declared defaults).
func BuildPlan(p *Program, enabled map[string]bool) (*Plan, error) {
	state := p.Options()
	for name, on := range enabled {
		if _, ok := state[name]; !ok {
			return nil, fmt.Errorf("graph: unknown option %q", name)
		}
		state[name] = on
	}
	b := &planBuilder{
		plan:  &Plan{Enabled: state},
		names: map[string]bool{},
	}
	if _, _, err := b.build(p.Root, noSlice, state); err != nil {
		return nil, err
	}
	b.plan.directSuccs = make([][]int, len(b.plan.Tasks))
	for _, t := range b.plan.Tasks {
		for _, d := range t.DirectDeps {
			b.plan.directSuccs[d] = append(b.plan.directSuccs[d], t.ID)
		}
		if t.Role == RoleComponent {
			b.plan.components = append(b.plan.components, t)
		}
	}
	return b.plan, nil
}

// build flattens node n and returns the IDs of its entry tasks (those
// with no dependency inside the subtree) and exit tasks (those nothing
// inside the subtree depends on). Both are empty for disabled options.
func (b *planBuilder) build(n *Node, sc sliceCtx, enabled map[string]bool) (entries, exits []int, err error) {
	if n == nil {
		return nil, nil, nil
	}
	switch n.Kind {
	case KindComponent:
		t, err := b.addComponent(n, sc)
		if err != nil {
			return nil, nil, err
		}
		return []int{t.ID}, []int{t.ID}, nil

	case KindSeq:
		var firstEntries, prevExits []int
		for _, c := range n.Children {
			e, x, err := b.build(c, sc, enabled)
			if err != nil {
				return nil, nil, err
			}
			if len(e) == 0 { // disabled option or empty subtree
				continue
			}
			if prevExits != nil {
				// The one rule: a boundary that is plural on both sides is
				// one join, any other keeps its direct edges.
				if len(prevExits) >= 2 && len(e) >= 2 {
					b.join(prevExits, e)
				} else {
					b.order(prevExits, e)
				}
			}
			if firstEntries == nil {
				firstEntries = e
			}
			prevExits = x
		}
		return firstEntries, prevExits, nil

	case KindPar:
		return b.buildPar(n, sc, enabled)

	case KindOption:
		if !enabled[n.Name] {
			return nil, nil, nil
		}
		osc := sc
		osc.options = append(append([]string(nil), sc.options...), n.Name)
		return b.buildBody(n.Children, osc, enabled)

	case KindManager:
		entry := b.addManagerTask(n, RoleManagerEntry, sc)
		msc := sc
		msc.managers = append(append([]string(nil), sc.managers...), n.Name)
		e, x, err := b.buildBody(n.Children, msc, enabled)
		if err != nil {
			return nil, nil, err
		}
		exit := b.addManagerTask(n, RoleManagerExit, sc)
		entries, exits = []int{entry.ID}, []int{exit.ID}
		b.order(entries, e)
		if len(x) == 0 {
			x = entries
		}
		b.order(x, exits)
		return entries, exits, nil
	}
	return nil, nil, fmt.Errorf("graph: unknown node kind %v", n.Kind)
}

// buildBody flattens a child list with implicit sequential semantics
// (XSPCL: "when two components are specified after another, these are
// scheduled sequentially").
func (b *planBuilder) buildBody(children []*Node, sc sliceCtx, enabled map[string]bool) (entries, exits []int, err error) {
	seq := &Node{Kind: KindSeq, Children: children}
	return b.build(seq, sc, enabled)
}

func (b *planBuilder) buildPar(n *Node, sc sliceCtx, enabled map[string]bool) (entries, exits []int, err error) {
	switch n.Shape {
	case ShapeTask:
		for _, c := range n.Children {
			e, x, err := b.build(c, sc, enabled)
			if err != nil {
				return nil, nil, err
			}
			entries = append(entries, e...)
			exits = append(exits, x...)
		}
		return entries, exits, nil

	case ShapeSlice:
		if len(n.Children) != 1 {
			return nil, nil, fmt.Errorf("graph: slice group must have exactly one parblock, has %d", len(n.Children))
		}
		if err := checkReplication(n, sc); err != nil {
			return nil, nil, err
		}
		for i := 0; i < n.N; i++ {
			csc := sliceCtx{idx: i, n: n.N, suffix: fmt.Sprintf("%s#%d", sc.suffix, i), options: sc.options, managers: sc.managers}
			e, x, err := b.build(n.Children[0], csc, enabled)
			if err != nil {
				return nil, nil, err
			}
			entries = append(entries, e...)
			exits = append(exits, x...)
		}
		return entries, exits, nil

	case ShapeCrossdep:
		if len(n.Children) == 0 {
			return nil, nil, fmt.Errorf("graph: crossdep group needs at least one parblock")
		}
		if err := checkReplication(n, sc); err != nil {
			return nil, nil, err
		}
		// copies[b][i] holds the (entries, exits) of copy i of parblock b.
		type ports struct{ e, x []int }
		prev := make([]ports, 0, n.N)
		for bi, blk := range n.Children {
			cur := make([]ports, n.N)
			for i := 0; i < n.N; i++ {
				csc := sliceCtx{idx: i, n: n.N, suffix: fmt.Sprintf("%s#%d", sc.suffix, i), options: sc.options, managers: sc.managers}
				e, x, err := b.build(blk, csc, enabled)
				if err != nil {
					return nil, nil, err
				}
				if len(e) == 0 {
					return nil, nil, fmt.Errorf("graph: crossdep parblock %d is empty", bi)
				}
				cur[i] = ports{e, x}
				if bi == 0 {
					entries = append(entries, e...)
				} else {
					// Figure 5: slice i of parblock b depends on slices
					// i-1, i and i+1 of parblock b-1.
					for _, j := range []int{i - 1, i, i + 1} {
						if j < 0 || j >= n.N {
							continue
						}
						b.order(prev[j].x, e)
					}
				}
			}
			prev = cur
		}
		for _, p := range prev {
			exits = append(exits, p.x...)
		}
		return entries, exits, nil
	}
	return nil, nil, fmt.Errorf("graph: unknown shape %v", n.Shape)
}

func checkReplication(n *Node, sc sliceCtx) error {
	if n.N < 1 {
		return fmt.Errorf("graph: %s group %q has n=%d", n.Shape, n.Name, n.N)
	}
	return nil
}

func (b *planBuilder) addComponent(n *Node, sc sliceCtx) (*Task, error) {
	if n.Class == "" {
		return nil, fmt.Errorf("graph: component %q has no class", n.Name)
	}
	name := n.Name + sc.suffix
	if b.names[name] {
		return nil, fmt.Errorf("graph: duplicate component instance %q", name)
	}
	b.names[name] = true
	t := &Task{
		ID:      len(b.plan.Tasks),
		Name:    name,
		Role:    RoleComponent,
		Class:   n.Class,
		Node:    n.Name,
		Params:  n.Params,
		Ports:   n.Ports,
		Slice:   sc.idx,
		NSlices: sc.n,
		Options: sc.options,
		Scope:   sc.managers,
		WaitsOn: NoJoin,
		Feeds:   NoJoin,
	}
	b.plan.Tasks = append(b.plan.Tasks, t)
	return t, nil
}

func (b *planBuilder) addManagerTask(n *Node, role Role, sc sliceCtx) *Task {
	suffix := ".entry"
	if role == RoleManagerExit {
		suffix = ".exit"
	}
	t := &Task{
		ID:      len(b.plan.Tasks),
		Name:    n.Name + sc.suffix + suffix,
		Role:    role,
		Manager: n.Name,
		Slice:   sc.idx,
		NSlices: sc.n,
		Options: sc.options,
		WaitsOn: NoJoin,
		Feeds:   NoJoin,
	}
	b.plan.Tasks = append(b.plan.Tasks, t)
	return t
}

// order adds a direct edge from every task of before to every task of
// after. No call site can repeat an edge: a task receives dependencies
// at one place in the tree only (it stops being an entry of anything
// once it has some), and the lists handed in hold distinct tasks.
func (b *planBuilder) order(before, after []int) {
	for _, id := range after {
		t := b.plan.Tasks[id]
		t.DirectDeps = append(t.DirectDeps, before...)
	}
}

// join orders every task of entries after every task of feeders through
// one Join. The two lists are kept as they are: build returns them in
// ascending ID order and nothing modifies a returned list.
func (b *planBuilder) join(feeders, entries []int) {
	j := len(b.plan.Joins)
	b.plan.Joins = append(b.plan.Joins, Join{Feeders: feeders, Entries: entries})
	for _, id := range feeders {
		b.plan.Tasks[id].Feeds = j
	}
	for _, id := range entries {
		b.plan.Tasks[id].WaitsOn = j
	}
}

// Validate checks plan invariants: dependency IDs in range, in strictly
// ascending order (so none repeats) and smaller than the dependent's own
// ID (topological order, no self-dependency); and for joins, that each
// is plural on both sides, lists exactly the tasks whose Feeds / WaitsOn
// name it, in ascending order, with every feeder before every entry,
// and that no task mixes a join with direct edges on the same side.
func (p *Plan) Validate() error {
	feeds := make([]int, len(p.Joins)) // tasks naming each join in Feeds
	waits := make([]int, len(p.Joins)) // ... and in WaitsOn
	for _, t := range p.Tasks {
		last := -1
		for _, d := range t.DirectDeps {
			if d < 0 || d >= len(p.Tasks) {
				return fmt.Errorf("graph: task %s dep %d out of range", t.Name, d)
			}
			if d >= t.ID {
				return fmt.Errorf("graph: task %s (id %d) depends on later task %d", t.Name, t.ID, d)
			}
			if d <= last {
				return fmt.Errorf("graph: task %s deps not in ascending order (%d after %d)", t.Name, d, last)
			}
			last = d
		}
		for _, j := range [2]int{t.WaitsOn, t.Feeds} {
			if j != NoJoin && (j < 0 || j >= len(p.Joins)) {
				return fmt.Errorf("graph: task %s names join %d, plan has %d", t.Name, j, len(p.Joins))
			}
		}
		if t.WaitsOn != NoJoin {
			if len(t.DirectDeps) > 0 {
				return fmt.Errorf("graph: task %s waits on join %d and on direct deps", t.Name, t.WaitsOn)
			}
			waits[t.WaitsOn]++
		}
		if t.Feeds != NoJoin {
			if len(p.directSuccs[t.ID]) > 0 {
				return fmt.Errorf("graph: task %s feeds join %d and direct successors", t.Name, t.Feeds)
			}
			feeds[t.Feeds]++
		}
	}
	for j, jn := range p.Joins {
		if len(jn.Feeders) < 2 || len(jn.Entries) < 2 {
			return fmt.Errorf("graph: join %d is %d -> %d, want two or more on each side", j, len(jn.Feeders), len(jn.Entries))
		}
		if len(jn.Feeders) != feeds[j] || len(jn.Entries) != waits[j] {
			return fmt.Errorf("graph: join %d lists %d -> %d tasks but %d feed it and %d wait on it",
				j, len(jn.Feeders), len(jn.Entries), feeds[j], waits[j])
		}
		last := -1
		for _, id := range jn.Feeders {
			if id <= last || id >= len(p.Tasks) || p.Tasks[id].Feeds != j {
				return fmt.Errorf("graph: join %d feeder %d out of range, out of order or not feeding it", j, id)
			}
			last = id
		}
		for _, id := range jn.Entries {
			if id <= last || id >= len(p.Tasks) || p.Tasks[id].WaitsOn != j {
				return fmt.Errorf("graph: join %d entry %d out of range, out of order, before a feeder or not waiting on it", j, id)
			}
			last = id
		}
	}
	return nil
}

// CriticalPath returns the longest path through the plan's DAG under
// the given per-task cost function: the minimum possible makespan of
// one iteration with unbounded cores.
func (p *Plan) CriticalPath(cost func(*Task) int64) int64 {
	finish := make([]int64, len(p.Tasks))
	// fired[j] is when join j's last feeder finishes, computed when its
	// first entry comes up: by then every feeder (smaller IDs) is done.
	fired := make([]int64, len(p.Joins))
	for j := range fired {
		fired[j] = -1
	}
	var maxFinish int64
	for _, t := range p.Tasks { // tasks are in topological order
		var start int64
		if j := t.WaitsOn; j != NoJoin {
			if fired[j] < 0 {
				fired[j] = maxOf(finish, p.Joins[j].Feeders)
			}
			start = fired[j]
		} else {
			start = maxOf(finish, t.DirectDeps)
		}
		finish[t.ID] = start + cost(t)
		if finish[t.ID] > maxFinish {
			maxFinish = finish[t.ID]
		}
	}
	return maxFinish
}

// maxOf returns the largest finish time among ids, 0 for none.
func maxOf(finish []int64, ids []int) int64 {
	var m int64
	for _, id := range ids {
		if finish[id] > m {
			m = finish[id]
		}
	}
	return m
}

// TotalWork returns the sum of all task costs: the sequential-execution
// lower bound used by the Brent-style prediction in internal/predict.
func (p *Plan) TotalWork(cost func(*Task) int64) int64 {
	var sum int64
	for _, t := range p.Tasks {
		sum += cost(t)
	}
	return sum
}

// ComponentTasks returns the plan's component tasks in ID order. The
// slice is built once, by BuildPlan, and shared: callers must not
// modify it.
func (p *Plan) ComponentTasks() []*Task { return p.components }
