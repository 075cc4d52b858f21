package hinch

import (
	"sort"
	"sync"
	"sync/atomic"

	"xspcl/internal/graph"
	"xspcl/internal/predict"
)

// engine implements the shared scheduling machinery: data-flow readiness
// tracking, pipeline parallelism across iterations, and the manager
// reconfiguration protocol (§3.4: detect at the subgraph entrance,
// pre-create eagerly, halt the subgraph, splice at quiescence, resume).
//
// Two executors drive it with different dispatch queues. The sim backend
// keeps the paper's central job queue ("Hinch provides automatic load
// balancing using a central job queue") as a deterministic priority heap.
// The real backend distributes the queue over per-worker deques with
// work stealing (see sched.go): completions release dependents onto the
// completing worker's own deque, preserving producer→consumer cache
// locality, and only the reconfiguration/retirement slow paths take the
// engine lock.
//
// The engine executes one plan for the whole run: the superplan, built
// with every option enabled. Tasks of currently-disabled options flow
// through the dependency machinery as zero-cost no-ops, so enabling or
// disabling an option never re-plans in-flight iterations — it only
// flips its tasks' off flags (App.off) at quiescence.
type engine struct {
	app *App

	// mu guards the slow-path state: launch/retire, the manager
	// reconfiguration protocol, stream-buffer accounting and the
	// applied option states. The job dependency fast path
	// (complete/release) runs without it.
	mu sync.Mutex

	// states is the iteration table: iteration k uses states[k%bufCap].
	// Iterations retire strictly in order, so the in-flight ones are
	// the range [retireNext, nextLaunch), never wider than bufCap
	// (canLaunch), and k's state is free at its launch: k-bufCap has
	// retired. A free state holds iter -1. Both ends of the range are
	// guarded by mu.
	states     []*iterState
	nextLaunch int
	retireNext int
	limit      int // iterations to run; -1 = until EOS
	stopLaunch int // first iteration index invalidated by EOS; -1 = none

	// ctxDone is the run context's done channel (nil when the run was
	// started without one); cancelled records that noteCancel ran.
	// Immutable once RunContext sets it, so the per-boundary probes are
	// lock-free.
	ctxDone   <-chan struct{}
	cancelled atomic.Bool

	mgrs  map[string]*mgrState
	stall int64

	// bufCap is the stream capacity: how many iterations may be in
	// flight, each holding one of win's buffer sets. widths[t] is
	// task t's replica width: how many consecutive iterations of t may
	// run concurrently. Width 1 serialises the task across iterations; a
	// stateless task at width W carries its cross-iteration dependency
	// from iteration k-W instead of k-1, so up to W iterations of it
	// execute at once, each on its own per-iteration stream slots. Both
	// are resolved once, by newEngine (predict.AutoWidths and
	// predict.Capacity), and fixed for the run.
	bufCap int
	widths []int

	// win is the run's one stream-buffer window: bufCap sets, each one
	// buffer of every stream. Taken and returned under mu (admit,
	// retire); its occupancy figures are atomic for Snapshot.
	win *window

	// waits[t] is task t's dependency count at launch: one per direct
	// dependency, one for the join it waits on if any, and one for the
	// cross-iteration dependency every task carries — an instance must
	// finish iteration k-W before starting iteration k, where W is the
	// task's replica width (components are stateful by default; stream
	// buffers recycle). That last one is satisfied through the crossOut
	// handshake, by launch or by an older iteration's completion. A
	// task whose count is 1 waits on that one only: it is a root, and
	// only a root can be the first job of its iteration to dispatch
	// (see ensureBuffers).
	// feeders[j] is plan join j's fan-in, its counter at launch. launch
	// copies both into a recycled iterState. retires[t] says whether
	// task t counts in an iteration's left: it releases nothing in its
	// own iteration (no direct successor, no join), so every other task
	// precedes one that does, or it is a manager exit, whose gate
	// iteration must not retire before applyReconfig. nRetires is their
	// number. Fixed for the run: the engine executes one plan.
	waits    []int32
	feeders  []int32
	retires  []bool
	nRetires int32

	// probes is the run's instrumentation, one per writer: probes[0] for
	// the engine lock / sim goroutine, probes[w+1] for worker w. Every
	// function below that records something takes the acting writer's
	// probe. See probe.go, and fold (metrics.go) for the reader.
	probes []probe

	tm *telemetry // histograms and watchdog; nil unless Config.Telemetry

	ready readyQueue // sim backend: central job queue, oldest iteration first
	err   error

	simRC RunContext // the sim backend's reusable run context

	ws *sched // real backend: work-stealing scheduler; nil on sim

	// policies[t] is task t's parsed failure policy; the zero value is
	// the implicit one, fail-fast with no deadline.
	policies []graph.FailurePolicy
	// faultRoute[t] is the event queue of the innermost manager
	// enclosing task t that polls a queue — where the runtime delivers
	// synthetic fault events for t — or nil when there is none.
	// faultMgr[t] is that manager's trace index, -1 when there is none.
	faultRoute []*EventQueue
	faultMgr   []int

	mgrNames []string       // sorted manager names; TraceEvent.ID table
	mgrIndex map[string]int // manager name -> trace index
}

// newEngine builds the engine for an App's (single) run. The iteration
// limit is set later, by Run; everything the steady state recycles —
// the iteration table and (real backend) the work-stealing scheduler —
// is allocated and sized here, so the run path starts warm.
func newEngine(a *App) *engine {
	e := &engine{
		app:        a,
		stopLaunch: -1,
		mgrs:       map[string]*mgrState{},
	}
	n := len(a.plan.Tasks)
	e.probes = newProbes(a.cfg, n)
	e.simRC.p = &e.probes[0]
	e.widths = predict.AutoWidths(a.prog, a.plan, a.cfg.Cores, a.cfg.PipelineDepth)
	e.bufCap = predict.Capacity(e.widths, a.cfg.StreamCapacity, a.cfg.PipelineDepth)
	e.win = newWindow(e.bufCap)
	for _, s := range a.streamList {
		s.slots = make([]*slot, e.bufCap)
	}
	e.states = make([]*iterState, e.bufCap)
	for i := range e.states {
		e.states[i] = &iterState{
			remaining: make([]int32, n),
			joinLeft:  make([]int32, len(a.plan.Joins)),
			crossOut:  make([]uint32, n),
		}
		// Free: the zero value would make iterAt(0) match.
		e.states[i].iter.Store(-1)
	}
	if a.cfg.Backend == BackendReal {
		e.ws = newSched(a.cfg, e.probes)
	}
	for name := range a.managers {
		e.mgrs[name] = &mgrState{}
		e.mgrNames = append(e.mgrNames, name)
	}
	// Sorted so every per-manager sweep (and therefore every trace
	// emission order) is independent of map iteration order.
	sort.Strings(e.mgrNames)
	e.mgrIndex = make(map[string]int, len(e.mgrNames))
	for i, n := range e.mgrNames {
		e.mgrIndex[n] = i
	}
	e.waits = make([]int32, n)
	e.retires = make([]bool, n)
	e.feeders = make([]int32, len(a.plan.Joins))
	for i, jn := range a.plan.Joins {
		e.feeders[i] = int32(len(jn.Feeders))
	}
	e.policies = make([]graph.FailurePolicy, n)
	e.faultRoute = make([]*EventQueue, n)
	e.faultMgr = make([]int, n)
	for _, t := range a.plan.Tasks {
		e.waits[t.ID] = int32(len(t.DirectDeps)) + 1
		if t.WaitsOn != graph.NoJoin {
			e.waits[t.ID]++
		}
		if t.Role == graph.RoleManagerExit || len(a.plan.DirectSuccs(t.ID)) == 0 && t.Feeds == graph.NoJoin {
			e.retires[t.ID] = true
			e.nRetires++
		}
		e.faultMgr[t.ID] = -1
		// Scope lists enclosing managers outermost first; deliver to the
		// innermost one that polls a queue.
		for i := len(t.Scope) - 1; i >= 0; i-- {
			m := a.managers[t.Scope[i]]
			if m != nil && m.Queue != "" {
				e.faultRoute[t.ID] = a.queues[m.Queue]
				e.faultMgr[t.ID] = e.mgrIndex[m.Name]
				break
			}
		}
		if t.Role != graph.RoleComponent {
			continue
		}
		// Syntax errors were rejected by Program.Validate; a hand-built
		// bad policy degenerates to fail-fast.
		if pol, err := graph.ParseFailurePolicy(t.Params[graph.OnErrorParam], t.Params[graph.DeadlineParam]); err == nil && !pol.IsDefault() {
			e.policies[t.ID] = pol
		}
	}
	if a.cfg.Telemetry {
		e.tm = newTelemetry(e)
	}
	return e
}

// traceMeta assembles the Tracer.Begin metadata for this run.
func (e *engine) traceMeta() TraceMeta {
	tasks := make([]string, len(e.app.plan.Tasks))
	for i, t := range e.app.plan.Tasks {
		tasks[i] = t.Name
	}
	return TraceMeta{
		Cores:    e.app.cfg.Cores,
		Wall:     e.ws != nil,
		Tasks:    tasks,
		Queues:   e.app.queueNames,
		Managers: e.mgrNames,
	}
}

// iterAt returns the in-flight state of iteration k, or nil when k is
// not (or no longer) in flight. Safe without mu: each state is
// validated against the probed iteration, and a free one holds -1.
// A job's own iteration is j.it; iterAt serves only the probes across
// iterations: launch's k-W, complete's k+W and retireSweep's oldest.
func (e *engine) iterAt(k int) *iterState {
	if k < 0 {
		return nil
	}
	st := e.states[k%len(e.states)]
	if st.iter.Load() != int64(k) {
		return nil
	}
	return st
}
