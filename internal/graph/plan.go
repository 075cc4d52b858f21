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

	// Option names the innermost enclosing option subgraph, or "" when
	// the task is unconditional. The runtime uses it to decide which
	// component instances to create or destroy on reconfiguration.
	Option string

	// Scope lists the enclosing managers, outermost first. A manager's
	// reconfiguration requests are broadcast to every component task
	// whose Scope contains it.
	Scope []string

	// Deps lists intra-iteration dependencies: this task runs only after
	// every task in Deps has completed in the same iteration.
	Deps []int
}

// Plan is the flattened task DAG of one iteration under a given
// configuration (set of enabled options). Tasks are stored in a valid
// topological order: every dependency of Tasks[i] has a smaller ID.
type Plan struct {
	Tasks   []*Task
	Enabled map[string]bool // option states this plan was built with

	// Succs[i] lists the IDs of tasks depending on task i (the reverse
	// of Deps), precomputed for the scheduler.
	Succs [][]int

	components []*Task // see ComponentTasks
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
// data-parallel copy this is, how many copies exist, and the innermost
// enclosing option name.
type sliceCtx struct {
	idx, n   int
	suffix   string
	option   string
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
	b.plan.Succs = make([][]int, len(b.plan.Tasks))
	for _, t := range b.plan.Tasks {
		for _, d := range t.Deps {
			b.plan.Succs[d] = append(b.plan.Succs[d], t.ID)
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
				for _, id := range e {
					b.plan.Tasks[id].Deps = appendUnique(b.plan.Tasks[id].Deps, prevExits)
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
		osc.option = n.Name
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
		for _, id := range e {
			b.plan.Tasks[id].Deps = appendUnique(b.plan.Tasks[id].Deps, []int{entry.ID})
		}
		if len(x) == 0 {
			exit.Deps = appendUnique(exit.Deps, []int{entry.ID})
		} else {
			exit.Deps = appendUnique(exit.Deps, x)
		}
		return []int{entry.ID}, []int{exit.ID}, nil
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
			csc := sliceCtx{idx: i, n: n.N, suffix: fmt.Sprintf("%s#%d", sc.suffix, i), option: sc.option, managers: sc.managers}
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
				csc := sliceCtx{idx: i, n: n.N, suffix: fmt.Sprintf("%s#%d", sc.suffix, i), option: sc.option, managers: sc.managers}
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
						for _, id := range e {
							b.plan.Tasks[id].Deps = appendUnique(b.plan.Tasks[id].Deps, prev[j].x)
						}
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
		Option:  sc.option,
		Scope:   sc.managers,
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
		Option:  sc.option,
	}
	b.plan.Tasks = append(b.plan.Tasks, t)
	return t
}

func appendUnique(deps []int, add []int) []int {
	for _, a := range add {
		found := false
		for _, d := range deps {
			if d == a {
				found = true
				break
			}
		}
		if !found {
			deps = append(deps, a)
		}
	}
	return deps
}

// Validate checks plan invariants: topological ID order, no
// self-dependencies, dependency IDs in range.
func (p *Plan) Validate() error {
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			if d < 0 || d >= len(p.Tasks) {
				return fmt.Errorf("graph: task %s dep %d out of range", t.Name, d)
			}
			if d >= t.ID {
				return fmt.Errorf("graph: task %s (id %d) depends on later task %d", t.Name, t.ID, d)
			}
		}
	}
	return nil
}

// CriticalPath returns the longest path through the plan's DAG under
// the given per-task cost function: the minimum possible makespan of
// one iteration with unbounded cores.
func (p *Plan) CriticalPath(cost func(*Task) int64) int64 {
	finish := make([]int64, len(p.Tasks))
	var maxFinish int64
	for _, t := range p.Tasks { // tasks are in topological order
		var start int64
		for _, d := range t.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[t.ID] = start + cost(t)
		if finish[t.ID] > maxFinish {
			maxFinish = finish[t.ID]
		}
	}
	return maxFinish
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
