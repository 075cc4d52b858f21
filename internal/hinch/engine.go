package hinch

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/graph"
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
// changes the per-iteration snapshot taken at the manager entrance.
type engine struct {
	app *App

	// mu guards the slow-path state: launch/retire, the manager
	// reconfiguration protocol, stream-buffer accounting and the
	// per-iteration option maps. The job dependency fast path
	// (complete/release) runs without it.
	mu sync.Mutex

	// ring holds the in-flight iterations, indexed by iteration number
	// modulo len(ring). Slots are written under mu (launch/retire) and
	// read lock-free by workers; the window is bounded by PipelineDepth,
	// which is strictly smaller than the ring, so a live slot always
	// belongs to the iteration it is probed for.
	ring   []atomic.Pointer[iterState]
	nIters int // live iterations; guarded by mu

	nextLaunch int
	retireNext int // oldest iteration not yet retired; guarded by mu
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

	// bufCap is the live stream-FIFO capacity — how many iterations may
	// be in flight, each holding one of the window's buffer sets; starts
	// at StreamCapacity and follows the autotuner's widths.
	// Written under mu (or by the sim goroutine); atomic so App.Snapshot
	// can read it mid-run.
	bufCap atomic.Int32

	// widths[t] is task t's replica width: how many consecutive
	// iterations of t may run concurrently. Width 1 (every task before
	// replicate= existed) serialises the task across iterations; a
	// stateless task at width W carries its cross-iteration dependency
	// from iteration k-W instead of k-1, so up to W iterations of it
	// execute at once, each on its own per-iteration stream slots.
	// Written by setWidth (launch/tuner slow path), read lock-free on
	// the completion fast path.
	widths []atomic.Int32

	// waits[t] is task t's dependency count at launch: one per direct
	// dependency, one for the join it waits on if any, and one for the
	// cross-iteration dependency every task carries — an instance must
	// finish iteration k-W before starting iteration k, where W is the
	// task's replica width (components are stateful by default; stream
	// buffers recycle). That last one is satisfied through crossClaim, by
	// launch or by an older iteration's completions. Fixed for the run:
	// the engine executes one plan.
	waits []int32

	tu *tuner // feedback autotuner; nil unless Config.Autotune

	// epochs is the run's epoch clock: the tuner's round, then the
	// watchdog's check, each present only when configured (see tick).
	epochs []epoch

	// probes is the run's instrumentation, one per writer: probes[0] for
	// the engine lock / sim goroutine, probes[w+1] for worker w. Every
	// function below that records something takes the acting writer's
	// probe. See probe.go, and fold (metrics.go) for the reader.
	probes []probe

	tm *telemetry // histograms and watchdog; nil unless Config.Telemetry

	ready readyQueue // sim backend: central job queue, oldest iteration first
	err   error

	// free recycles iterState allocations between iterations (guarded
	// by mu). Safe because retirement is strictly in-order: while any
	// job of iteration k is mid-completion, retireNext <= k, so the
	// states it touches (k and k+1) cannot have been recycled.
	free []*iterState

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
// the iteration ring, the iterState free-list and (real backend) the
// work-stealing scheduler — is allocated and sized here, so the run
// path starts warm.
func newEngine(a *App) *engine {
	e := &engine{
		app:        a,
		ring:       make([]atomic.Pointer[iterState], a.cfg.PipelineDepth+2),
		stopLaunch: -1,
		mgrs:       map[string]*mgrState{},
	}
	n := len(a.plan.Tasks)
	e.probes = newProbes(a.cfg, n)
	e.simRC.p = &e.probes[0]
	e.free = make([]*iterState, 0, len(e.ring))
	for i := 0; i < len(e.ring); i++ {
		e.free = append(e.free, &iterState{
			remaining:  make([]atomic.Int32, n),
			joinLeft:   make([]atomic.Int32, len(a.plan.Joins)),
			done:       make([]atomic.Bool, n),
			crossClaim: make([]atomic.Bool, n),
		})
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
	e.bufCap.Store(int32(a.cfg.StreamCapacity))
	e.widths = make([]atomic.Int32, n)
	e.waits = make([]int32, n)
	e.policies = make([]graph.FailurePolicy, n)
	e.faultRoute = make([]*EventQueue, n)
	e.faultMgr = make([]int, n)
	for _, t := range a.plan.Tasks {
		e.widths[t.ID].Store(1)
		e.waits[t.ID] = int32(len(t.DirectDeps)) + 1
		if t.WaitsOn != graph.NoJoin {
			e.waits[t.ID]++
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
		// bad policy degenerates to fail-fast, a bad width to 1.
		if pol, err := graph.ParseFailurePolicy(t.Params[graph.OnErrorParam], t.Params[graph.DeadlineParam]); err == nil && !pol.IsDefault() {
			e.policies[t.ID] = pol
		}
		// Auto widths start at 1; the tuner raises them at runtime. The
		// pipeline window admits at most PipelineDepth iterations, so a
		// wider width could never be exercised.
		if rep, err := graph.TaskReplicate(t); err == nil && !rep.Auto && rep.Width > 1 {
			e.widths[t.ID].Store(int32(min(rep.Width, a.cfg.PipelineDepth)))
		}
	}
	if a.cfg.Autotune {
		e.tu = newTuner(e)
		e.tu.epoch = e.addEpoch(a.cfg.TuneEpoch, e.tuneEpoch)
	}
	if a.cfg.Telemetry {
		e.tm = newTelemetry(e)
		e.addEpoch(a.cfg.WatchdogEpoch, e.watchdogEpoch)
	}
	return e
}

// epoch is one periodic role on the epoch clock. every and next are in
// the backend's clock domain: virtual cycles on sim, wall nanoseconds
// since the run started on real.
type epoch struct {
	every, next int64
	run         func()
}

// addEpoch appends run to the epoch clock, once per every of the
// backend's clock (on sim a nanosecond counts as a virtual cycle), and
// returns the period in that clock domain.
func (e *engine) addEpoch(every time.Duration, run func()) int64 {
	e.epochs = append(e.epochs, epoch{every: int64(every), next: int64(every), run: run})
	return int64(every)
}

// tick runs every epoch due at now, in list order, and returns when the
// next one falls due (math.MaxInt64 with none). Sim replays each
// boundary a clock jump passed, so stall detection and the tuner's
// decision trace stay a function of the virtual schedule; real runs a
// late epoch once and skips the boundaries it missed, as a time.Ticker
// does. Must be called with mu held on the real backend.
func (e *engine) tick(now int64) (next int64) {
	next = math.MaxInt64
	for i := range e.epochs {
		ep := &e.epochs[i]
		for now >= ep.next {
			ep.run()
			if e.ws != nil {
				ep.next += (now - ep.next) / ep.every * ep.every
			}
			ep.next += ep.every
		}
		next = min(next, ep.next)
	}
	return next
}

// traceMeta assembles the Tracer.Begin metadata for this run.
func (e *engine) traceMeta() TraceMeta {
	tasks := make([]string, len(e.app.plan.Tasks))
	for i, t := range e.app.plan.Tasks {
		tasks[i] = t.Name
	}
	streams := make([]string, len(e.app.streamList))
	for i, s := range e.app.streamList {
		streams[i] = s.name
	}
	return TraceMeta{
		Cores:    e.app.cfg.Cores,
		Wall:     e.ws != nil,
		Tasks:    tasks,
		Streams:  streams,
		Queues:   e.app.queueNames,
		Managers: e.mgrNames,
	}
}

// iterAt returns the in-flight state of iteration k, or nil when k is
// not (or no longer) in flight. Safe without mu: ring slots are atomic
// pointers and each state is validated against the probed iteration.
func (e *engine) iterAt(k int) *iterState {
	if k < 0 {
		return nil
	}
	st := e.ring[k%len(e.ring)].Load()
	if st == nil || st.iter.Load() != int64(k) {
		return nil
	}
	return st
}

// eachIter calls f for every in-flight iteration. Must be called with
// mu held (iteration order is unspecified; callers must not depend on
// it).
func (e *engine) eachIter(f func(*iterState)) {
	for i := range e.ring {
		if st := e.ring[i].Load(); st != nil {
			f(st)
		}
	}
}
