package hinch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/graph"
	"xspcl/internal/spacecake"
)

// Backend selects how the job graph is executed.
type Backend int

// Execution backends.
const (
	// BackendSim executes on a deterministic discrete-event simulation
	// of a SpaceCAKE tile with a virtual cycle clock. All paper
	// experiments use this backend.
	BackendSim Backend = iota
	// BackendReal executes on a pool of worker goroutines, measuring
	// host wall-clock time.
	BackendReal
)

// Config configures a run. Every duration in it follows one rule: on
// the sim backend it counts virtual cycles (1ns = 1 cycle), on the real
// backend wall time.
type Config struct {
	Backend Backend

	// Cores is the number of simulated cores (sim) or worker goroutines
	// (real; all start with the run and park while idle). Defaults to 1.
	Cores int

	// PipelineDepth caps the iterations in flight: it bounds
	// StreamCapacity and the replica widths. The paper schedules five
	// (§4): "To exploit pipeline parallelism ... five iterations are
	// simultaneously scheduled." Defaults to 5. It is also the event
	// delivery distance: an event sent during iteration k is delivered
	// by the manager entry of k + PipelineDepth, which launches after k
	// retired.
	PipelineDepth int

	// StreamCapacity bounds the iterations in flight. Each holds one
	// set of stream buffers — one buffer of every stream — from its
	// first dispatch to its retirement, so the run owns one window of
	// that many sets, shared by all streams, and the memory footprint
	// of deep pipelines stays bounded. An iteration launches only while
	// fewer are in flight. Defaults to 3; clamped to PipelineDepth. Each
	// replica beyond the first of a replicated component adds one buffer
	// set, up to PipelineDepth: the run's capacity is
	// min(StreamCapacity + Σ(width − 1), PipelineDepth), fixed at NewApp
	// (see predict.AutoWidths for the widths).
	StreamCapacity int

	// Workless makes components skip their real kernel computation and
	// only perform cost accounting, for fast simulation sweeps. Output
	// data is then meaningless; checksum-comparing tests must not set it.
	Workless bool

	// LazyCreation disables the paper's eager pre-creation of option
	// components at event detection (§3.4): components are then created
	// inside the quiescent window and their creation cost is added to
	// the reconfiguration stall. Exists for the ablation benchmark; the
	// paper's design (eager) is the default.
	LazyCreation bool

	// Hooks injects test-only scheduler instrumentation (yield points
	// at dispatch boundaries, steal-victim reseeding) for schedule
	// exploration; see TestHooks. Nil in production.
	Hooks TestHooks

	// Tracer receives span and counter events while the run executes
	// (job lifecycle, buffer-window occupancy, scheduler actions,
	// reconfiguration phases); see Tracer and internal/hinch/trace.
	// Nil disables tracing at the cost of one branch per boundary.
	Tracer Tracer

	// Faults injects deterministic errors, panics and latency spikes at
	// component boundaries for fault-tolerance testing; see
	// FaultInjector. Nil in production — the fault-free path pays one
	// branch per component dispatch.
	Faults FaultInjector

	// Telemetry enables the histograms — per-stage service time,
	// iteration latency, buffer-window occupancy, steal batch size, park
	// duration (see telemetry.go) — and the stalled-progress watchdog,
	// all scrapeable mid-run through App.Snapshot and internal/obs. Off,
	// the hot path pays one nil check per boundary, same as
	// Tracer/Hooks; the counters in Snapshot are live either way.
	Telemetry bool

	// WatchdogEpoch is the watchdog's epoch length: three consecutive
	// epochs without an iteration retiring flag the run stalled
	// (Snapshot.Stalled, /healthz degraded, a TraceStall instant) until
	// progress resumes. On sim checks fire at virtual-time boundaries,
	// so stall detection is deterministic. Defaults to 2000000 cycles on
	// sim, 250ms on real. Requires Telemetry.
	WatchdogEpoch time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 5
	}
	if c.StreamCapacity <= 0 {
		c.StreamCapacity = 3
	}
	c.StreamCapacity = min(c.StreamCapacity, c.PipelineDepth)
	watchdog := 250 * time.Millisecond
	if c.Backend == BackendSim {
		watchdog = 2000000
	}
	if c.WatchdogEpoch <= 0 {
		c.WatchdogEpoch = watchdog
	}
	return c
}

// The sim backend's reconfiguration cost model. reconfigBaseCycles and
// reconfigPerTaskCycles are charged as a global stall when a quiescent
// reconfiguration is applied: the cost of splicing the option subgraph
// in or out and synchronising the new components with the contained
// subgraph (§3.4). Component creation itself (createOpsPerComponent) is
// charged earlier, overlapped with execution, to the manager job that
// pre-creates an option's components as soon as the event is detected.
const (
	reconfigBaseCycles    = 20000
	reconfigPerTaskCycles = 800
	createOpsPerComponent = 4000
)

// instance is one live component instance.
type instance struct {
	comp  Component
	recon Reconfigurable // comp's reconfiguration interface, or nil

	hasMail atomic.Bool // lock-free fast-path probe for an empty mailbox
	mu      sync.Mutex
	mailbox []mail // pending reconfiguration requests, in stamp order
}

// mail is a reconfiguration request stamped with the iteration whose
// manager entry delivered it (-1: the <reconfig> init tag).
type mail struct {
	req  string
	iter int
}

// deliver queues a reconfiguration request delivered by iteration iter.
func (in *instance) deliver(req string, iter int) {
	in.mu.Lock()
	in.mailbox = append(in.mailbox, mail{req, iter})
	in.hasMail.Store(true)
	in.mu.Unlock()
}

// takeMail hands the Run of iteration iter the requests delivered by
// earlier iterations. Entries deliver in iteration order, so those are
// a prefix of the mailbox; a request delivered by iteration k reaches
// the first Run after k, whichever worker got to an older iteration's
// Run first. The atomic probe keeps the per-job cost of an empty
// mailbox to one load.
func (in *instance) takeMail(iter int) (reqs []string) {
	if !in.hasMail.Load() {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.mailbox) > 0 && in.mailbox[0].iter < iter {
		reqs = append(reqs, in.mailbox[0].req)
		in.mailbox = in.mailbox[1:]
	}
	in.hasMail.Store(len(in.mailbox) > 0)
	return reqs
}

// App is a loaded XSPCL application: the elaborated program bound to
// component instances, streams, event queues and a backend. Build one
// with NewApp and execute it once with Run.
type App struct {
	prog *graph.Program
	reg  *Registry
	cfg  Config

	streams    map[string]*Stream
	streamList []*Stream // declaration order, for deterministic allocation
	queues     map[string]*EventQueue
	queueNames []string       // declaration order; TraceEvent.ID name table
	queueIndex map[string]int // queue name -> trace index
	managers   map[string]*graph.Node

	// eng is the engine of the (single) run, built by NewApp.
	eng *engine

	// instTab holds the live component instances, indexed by task ID
	// (nil while an option enclosing the task is off). Reconfigurations
	// (rare, under the engine lock) store single entries; the per-job
	// resolve on the dispatch hot path is one lock-free index load.
	// taskID maps component task names to their index and is immutable
	// after NewApp.
	instTab []atomic.Pointer[instance]
	taskID  map[string]int

	// portBinds[taskID] lists the task's port→stream bindings, resolved
	// once at build time. Components bind a handful of ports, so the
	// per-access linear scan beats the two map lookups it replaces.
	portBinds [][]portBind

	options map[string]bool // applied option states; guarded by the engine lock
	plan    *graph.Plan     // the superplan (all options enabled)

	// off[taskID] is set while some option enclosing the task is off:
	// its jobs then complete as no-ops. Written by NewApp and, under the
	// engine lock, by applyReconfig, which runs only while no iteration
	// is inside the manager's subgraph: no job of a task whose flag
	// changes is in flight, so jobs read their flag without the lock.
	off []atomic.Bool

	// solvedParams holds format-solver-inferred initialization
	// parameters, keyed by graph node name (slice copies share a node):
	// the contextual specialisation of generic components
	// (ClassSpec.Signature where-binds the spec omitted).
	solvedParams map[string]map[string]string

	addr *spacecake.AddressSpace // nil on the real backend
	tile *spacecake.Tile         // nil on the real backend

	ran bool
}

// NewApp validates prog against the registry, builds the initial plan,
// allocates streams and event queues, and instantiates the components
// of the default configuration.
func NewApp(prog *graph.Program, reg *Registry, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if err := prog.Validate(reg); err != nil {
		return nil, err
	}
	// Reconcile stream formats against the component interface
	// signatures over the superplan view (all options enabled): an
	// unsolvable wiring is rejected at load time, and solved where-bind
	// parameters specialise generic components at Init.
	formats, err := graph.SolveFormats(prog, nil, reg)
	if err != nil {
		return nil, fmt.Errorf("hinch: %w", err)
	}
	if len(formats.Conflicts) > 0 {
		c := formats.Conflicts[0]
		msg := fmt.Sprintf("hinch: format mismatch")
		if c.Stream != "" {
			msg = fmt.Sprintf("hinch: format mismatch on stream %q", c.Stream)
		}
		msg += ": " + c.Detail
		for _, line := range c.Chain {
			msg += "\n\t" + line
		}
		return nil, fmt.Errorf("%s", msg)
	}
	a := &App{
		prog:         prog,
		reg:          reg,
		cfg:          cfg,
		streams:      map[string]*Stream{},
		queues:       map[string]*EventQueue{},
		managers:     map[string]*graph.Node{},
		options:      prog.Options(),
		solvedParams: formats.Params,
	}
	if cfg.Backend == BackendSim {
		a.addr = spacecake.NewAddressSpace()
		tcfg := spacecake.DefaultConfig(cfg.Cores)
		if err := tcfg.Validate(); err != nil {
			return nil, err
		}
		a.tile = spacecake.NewTile(tcfg)
	}
	for _, decl := range prog.Streams {
		s, err := newStream(decl, a.addr)
		if err != nil {
			return nil, err
		}
		a.streams[decl.Name] = s
		a.streamList = append(a.streamList, s)
	}
	a.queueIndex = map[string]int{}
	for _, q := range prog.Queues {
		a.queues[q] = NewEventQueue()
		a.queueIndex[q] = len(a.queueNames)
		a.queueNames = append(a.queueNames, q)
	}
	for _, m := range prog.Managers() {
		a.managers[m.Name] = m
	}
	// The engine always executes the superplan — every option's tasks
	// are present, and disabled ones run as zero-cost no-ops — so a
	// reconfiguration never re-plans in-flight iterations.
	allOn := map[string]bool{}
	for name := range a.options {
		allOn[name] = true
	}
	plan, err := graph.BuildPlan(prog, allOn)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	a.plan = plan
	a.instTab = make([]atomic.Pointer[instance], len(plan.Tasks))
	a.off = make([]atomic.Bool, len(plan.Tasks))
	a.taskID = make(map[string]int, len(plan.Tasks))
	for _, t := range plan.Tasks {
		on := a.optionsOn(t, nil)
		a.off[t.ID].Store(!on)
		if t.Role != graph.RoleComponent {
			continue
		}
		a.taskID[t.Name] = t.ID
		// Only instantiate components whose options are all on; the
		// others are created when a reconfiguration switches them on.
		if on {
			if err := a.createInstance(t); err != nil {
				return nil, err
			}
		}
	}
	a.portBinds = make([][]portBind, len(plan.Tasks))
	for _, t := range plan.Tasks {
		binds := make([]portBind, 0, len(t.Ports))
		for port, streamName := range t.Ports {
			s, ok := a.streams[streamName]
			if !ok {
				return nil, fmt.Errorf("hinch: task %q port %q bound to unknown stream %q", t.Name, port, streamName)
			}
			binds = append(binds, portBind{port: port, s: s})
		}
		a.portBinds[t.ID] = binds
	}
	// The engine (and, on the real backend, the work-stealing scheduler
	// with its per-worker state) is built here rather than in Run, so
	// the dispatch path starts with its iteration table and deques
	// already sized — Run's steady state allocates nothing for them.
	a.eng = newEngine(a)
	return a, nil
}

// portBind is one resolved port→stream binding of a task.
type portBind struct {
	port string
	s    *Stream
}

// optionsOn reports whether every option enclosing t is on, taking an
// option's state from pending where pending stages one and from the
// applied states otherwise. The caller holds the engine lock, or is
// NewApp.
func (a *App) optionsOn(t *graph.Task, pending map[string]bool) bool {
	for _, o := range t.Options {
		on, staged := pending[o]
		if !staged {
			on = a.options[o]
		}
		if !on {
			return false
		}
	}
	return true
}

// createInstance builds and initialises the component for a task that
// has none and publishes it in the instance table. Writers are
// serialised: NewApp is single-threaded and the engine writes only
// under its lock.
func (a *App) createInstance(t *graph.Task) error {
	spec, err := a.reg.Lookup(t.Class)
	if err != nil {
		return fmt.Errorf("hinch: component %q: %w", t.Name, err)
	}
	comp := spec.New()
	ic := &InitContext{
		name:    t.Name,
		params:  t.Params,
		solved:  a.solvedParams[t.Node],
		slice:   t.Slice,
		nslices: t.NSlices,
		app:     a,
	}
	if err := comp.Init(ic); err != nil {
		return fmt.Errorf("hinch: init %q: %w", t.Name, err)
	}
	inst := &instance{comp: comp}
	inst.recon, _ = comp.(Reconfigurable)
	if req, ok := t.Params[graph.ReconfigParam]; ok {
		// The <reconfig> tag: an initial reconfiguration request,
		// applied before the instance's first Run.
		if inst.recon == nil {
			return fmt.Errorf("hinch: component %q has an initial reconfiguration request but class %q has no reconfiguration interface", t.Name, t.Class)
		}
		inst.deliver(req, -1)
	}
	a.instTab[t.ID].Store(inst)
	return nil
}

// Component returns a live component instance by name (e.g. to read a
// sink's collected output after Run), or nil if absent.
func (a *App) Component(name string) Component {
	id, ok := a.taskID[name]
	if !ok {
		return nil
	}
	in := a.instTab[id].Load()
	if in == nil {
		return nil
	}
	return in.comp
}

// Queue returns a declared event queue by name (e.g. to inject user
// events from outside the graph), or nil if absent.
func (a *App) Queue(name string) *EventQueue { return a.queues[name] }

// Stream returns a declared stream by name (for inspection: its
// element description), or nil if absent.
func (a *App) Stream(name string) *Stream { return a.streams[name] }

// Plan returns the superplan: the task DAG with every option's tasks
// present (disabled options execute as no-ops).
func (a *App) Plan() *graph.Plan { return a.plan }

// Program returns the application's program.
func (a *App) Program() *graph.Program { return a.prog }

// Tile returns the simulated tile (nil on the real backend).
func (a *App) Tile() *spacecake.Tile { return a.tile }

// Run executes the application for the given number of iterations
// (frames). If iterations <= 0, the application runs until a source
// component returns EOS. An App can only be run once.
func (a *App) Run(iterations int) (*Report, error) {
	return a.RunContext(context.Background(), iterations)
}

// RunContext executes like Run, additionally honouring ctx: when it is
// cancelled (or its deadline passes), the run stops launching
// iterations, cancels every in-flight one, drains the pipeline through
// the normal retirement path — stream buffers and iteration state
// return to their pools, workers join, nothing leaks — and returns the
// partial Report with Outcome = OutcomeCancelled and a nil error.
// Cancellation is cooperative: the sim backend observes it at one fixed
// point per event-loop turn (a virtual-cycle boundary, so a cancel
// raised from inside the simulation is fully deterministic), the real
// backend at every worker's dispatch boundary and in its clock
// goroutine, joined before RunContext returns, plus the interruptible
// retry-backoff and injected-delay sleeps.
func (a *App) RunContext(ctx context.Context, iterations int) (*Report, error) {
	if a.ran {
		return nil, fmt.Errorf("hinch: app already ran")
	}
	a.ran = true
	if iterations <= 0 {
		iterations = -1
	}
	e := a.eng
	e.limit = iterations
	if ctx != nil {
		e.ctxDone = ctx.Done()
	}
	var run func() (*Report, error)
	switch a.cfg.Backend {
	case BackendSim:
		run = e.runSim
	case BackendReal:
		run = e.runReal
	default:
		return nil, fmt.Errorf("hinch: unknown backend %d", a.cfg.Backend)
	}
	e.probes[0].begin(e.traceMeta)
	rep, err := run()
	e.probes[0].end()
	// The run is over: dissolve the stream buffers back into the global
	// frame free-list, so the next App (a fresh run, a benchmark
	// iteration) reuses them instead of allocating.
	for _, s := range a.streamList {
		s.drainFrames(e.win.free)
	}
	return rep, err
}
