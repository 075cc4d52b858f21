package hinch

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/graph"
)

// job identifies one schedulable unit: one task of one iteration.
type job struct {
	iter int
	task *graph.Task
}

// iterState tracks the progress of one in-flight iteration.
//
// The dependency-tracking fields (remaining, joinLeft, done, crossClaim,
// left) are atomic so that the real backend's workers can retire jobs and
// release dependents without the engine lock; the reconfiguration bookkeeping
// (mgrOpts, optStarted) is only touched with e.mu held. The sim backend
// is single-threaded, so the atomics are uncontended there and the
// discrete-event schedule stays deterministic.
type iterState struct {
	// iter is the iteration this state currently represents. It is
	// atomic because iterAt probes ring slots without mu and validates
	// against it: a stale pointer (loaded just before retire freed the
	// slot) may observe the state mid-recycle. launch stores iter LAST
	// in the recycle sequence, so a probe that reads the new value is
	// guaranteed (seq-cst store/load pairing) to see every other field
	// already reset for the new iteration; any other value makes the
	// probe reject the state. Written only under mu.
	iter      atomic.Int64
	plan      *graph.Plan
	remaining []atomic.Int32 // unmet dependency count per task
	joinLeft  []atomic.Int32 // feeders not yet completed, per plan join
	done      []atomic.Bool
	// crossClaim arbitrates the cross-iteration release of each task:
	// both the completion of the same task in the previous iteration and
	// launch (when it observes that task already done, or no previous
	// iteration at all) may try to satisfy the cross dependency; the CAS
	// winner performs the release, so it happens exactly once even when
	// launch races with a completing worker.
	crossClaim []atomic.Bool
	left       atomic.Int32 // tasks not yet completed
	cancelled  atomic.Bool

	// bufSet is the stream-buffer set the iteration holds (see window),
	// taken at its first dispatch. acquired is stored after bufSet, so a
	// job that loads acquired == true without the engine lock sees it.
	bufSet   int
	acquired atomic.Bool

	// launchTS is the launching probe's clock, kept while telemetry or a
	// tracer is attached; retire subtracts it to record the end-to-end
	// iteration latency. Written at launch and read at retire, both
	// under mu on real, on the single goroutine on sim.
	launchTS int64

	// mgrOpts[m] is the option-state snapshot taken when manager m's
	// entry ran for this iteration; the iteration's option tasks are
	// enabled or skipped according to it. A reconfiguration may still
	// retro-apply to this iteration as long as none of the option's
	// tasks have started (tracked in optStarted). The snapshots stay
	// with the recycled state and are refilled in place, so entered —
	// not presence in the map — says whether the entry ran in this
	// iteration. Guarded by e.mu.
	mgrOpts map[string]*optSnapshot

	// optStarted[o] records that at least one task of option o was
	// dispatched in this iteration, fixing the option's state for the
	// rest of the iteration. Guarded by e.mu.
	optStarted map[string]bool
}

// optSnapshot is one manager's option states as one iteration sees them.
type optSnapshot struct {
	entered bool
	opts    map[string]bool
}

// mgrPhase is the reconfiguration protocol state of one manager.
type mgrPhase int

const (
	mgrIdle    mgrPhase = iota // no reconfiguration in progress
	mgrHalted                  // change detected; subgraph draining
	mgrApplied                 // options spliced; pipeline draining before resume
)

// mgrState tracks one manager's reconfiguration protocol.
type mgrState struct {
	phase       mgrPhase
	pending     map[string]bool // desired option states (nil when idle)
	gateAfter   int             // last iteration allowed into the subgraph
	lastEntered int             // highest iteration whose entry has executed
	parked      []job           // held entry jobs of iterations > gateAfter
}

// engine implements the shared scheduling machinery: data-flow readiness
// tracking, pipeline parallelism across iterations, and the manager
// reconfiguration protocol (§3.4: detect at the subgraph entrance/exit,
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

	bufParked []job // jobs waiting for stream buffers (backpressure)
	bufSpare  []job // retired bufParked backing array, reused on refill
	// bufCap is the live stream-FIFO capacity — how many of the window's
	// buffer sets may be held at once; starts at StreamCapacity, tunable.
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

	faults FaultInjector // deterministic fault injection; nil in production

	// policies[t] is task t's parsed failure policy; nil when every task
	// uses the implicit fail-fast policy, which keeps the fault-free
	// path to one nil check per component dispatch.
	policies []graph.FailurePolicy
	// faultRoute[t] is the event queue of the innermost manager
	// enclosing task t that polls a queue — where the runtime delivers
	// synthetic fault events for t. faultMgr[t] is that manager's trace
	// index. Both nil when policies is nil.
	faultRoute []*EventQueue
	faultMgr   []int

	mgrNames []string       // sorted manager names; TraceEvent.ID table
	mgrIndex map[string]int // manager name -> trace index
}

// readyQueue is the sim backend's central job queue. Jobs are handed out
// oldest iteration first (ties broken by task ID): the runtime drives
// old iterations to completion before touching new ones, so pipeline
// parallelism only fills otherwise-idle cores instead of round-robining
// across iterations — which both matches a data-flow runtime's natural
// eagerness to retire work and preserves producer→consumer cache
// locality within an iteration.
type readyQueue []job

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].iter != q[j].iter {
		return q[i].iter < q[j].iter
	}
	return q[i].task.ID < q[j].task.ID
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(job)) }
func (q *readyQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// newEngine builds the engine for an App's (single) run. The iteration
// limit is set later, by Run; everything the steady state recycles —
// the iteration ring, the iterState free-list, the backpressure
// buffers and (real backend) the work-stealing scheduler — is
// allocated and sized here, so the run path starts warm.
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
	e.bufParked = make([]job, 0, a.cfg.PipelineDepth+1)
	e.bufSpare = make([]job, 0, a.cfg.PipelineDepth+1)
	if a.cfg.Backend == BackendReal {
		e.ws = newSched(a.cfg, e.probes)
	}
	for name := range a.managers {
		e.mgrs[name] = &mgrState{lastEntered: -1}
		e.mgrNames = append(e.mgrNames, name)
	}
	// Sorted so every per-manager sweep (and therefore every trace
	// emission order) is independent of map iteration order.
	sort.Strings(e.mgrNames)
	e.mgrIndex = make(map[string]int, len(e.mgrNames))
	for i, n := range e.mgrNames {
		e.mgrIndex[n] = i
	}
	e.faults = a.cfg.Faults
	e.bufCap.Store(int32(a.cfg.StreamCapacity))
	e.widths = make([]atomic.Int32, n)
	for i := range e.widths {
		e.widths[i].Store(1)
	}
	e.waits = make([]int32, n)
	for _, t := range a.plan.Tasks {
		e.waits[t.ID] = int32(len(t.DirectDeps)) + 1
		if t.WaitsOn != graph.NoJoin {
			e.waits[t.ID]++
		}
	}
	for _, t := range a.plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		rep, err := graph.TaskReplicate(t)
		if err != nil || rep.Auto || rep.Width <= 1 {
			// Auto widths start at 1; the tuner raises them at runtime.
			// Syntax errors were rejected by Program.Validate.
			continue
		}
		wd := rep.Width
		if wd > a.cfg.PipelineDepth {
			// The pipeline window admits at most PipelineDepth iterations,
			// so a wider width could never be exercised.
			wd = a.cfg.PipelineDepth
		}
		e.widths[t.ID].Store(int32(wd))
	}
	if a.cfg.Autotune {
		e.tu = newTuner(e)
		e.tu.epoch = e.addEpoch(a.cfg.TuneEpochCycles, a.cfg.TuneEpochWall, e.tuneEpoch)
	}
	if a.cfg.Telemetry {
		e.tm = newTelemetry(e)
		e.addEpoch(a.cfg.WatchdogCycles, a.cfg.WatchdogWall, e.watchdogEpoch)
	}
	for _, t := range a.plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		pol, err := graph.ParseFailurePolicy(t.Params[graph.OnErrorParam], t.Params[graph.DeadlineParam])
		if err != nil || pol.IsDefault() {
			// Syntax errors were rejected by Program.Validate; a
			// hand-built bad policy degenerates to fail-fast.
			continue
		}
		if e.policies == nil {
			e.policies = make([]graph.FailurePolicy, len(a.plan.Tasks))
		}
		e.policies[t.ID] = pol
	}
	if e.policies != nil {
		e.faultRoute = make([]*EventQueue, len(a.plan.Tasks))
		e.faultMgr = make([]int, len(a.plan.Tasks))
		for _, t := range a.plan.Tasks {
			e.faultMgr[t.ID] = -1
			// Scope lists enclosing managers outermost first; deliver to
			// the innermost one that polls a queue.
			for i := len(t.Scope) - 1; i >= 0; i-- {
				m := a.managers[t.Scope[i]]
				if m != nil && m.Queue != "" {
					e.faultRoute[t.ID] = a.queues[m.Queue]
					e.faultMgr[t.ID] = e.mgrIndex[m.Name]
					break
				}
			}
		}
	}
	return e
}

// policyFor returns task t's failure policy (the zero value is
// fail-fast with no deadline).
func (e *engine) policyFor(t *graph.Task) graph.FailurePolicy {
	if e.policies == nil {
		return graph.FailurePolicy{}
	}
	return e.policies[t.ID]
}

// epoch is one periodic role on the epoch clock. every and next are in
// the backend's clock domain: virtual cycles on sim, wall nanoseconds
// since the run started on real.
type epoch struct {
	every, next int64
	run         func()
}

// addEpoch appends run to the epoch clock, every cycles on sim or every
// wall on real, and returns the period in that clock domain.
func (e *engine) addEpoch(cycles int64, wall time.Duration, run func()) int64 {
	every := cycles
	if e.ws != nil {
		every = int64(wall)
	}
	e.epochs = append(e.epochs, epoch{every: every, next: every, run: run})
	return every
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

// classKey maps a task to its per-class stats bucket.
func classKey(t *graph.Task) string {
	if t.Role != graph.RoleComponent {
		return "manager"
	}
	return t.Class
}

// canLaunch reports whether another iteration may enter the pipeline.
// While any manager is halted for reconfiguration no new iterations are
// admitted: "when the application is stopped for reconfiguration, the
// amount of parallelism in the application drops until the application
// is run sequentially" (§4.3). Must be called with mu held.
func (e *engine) canLaunch() bool {
	if e.err != nil {
		return false
	}
	if e.nIters >= e.app.cfg.PipelineDepth {
		return false
	}
	for _, st := range e.mgrs {
		if st.phase != mgrIdle {
			return false
		}
	}
	return e.moreToLaunch()
}

// moreToLaunch reports whether any future iteration remains (ignoring
// the pipeline window).
func (e *engine) moreToLaunch() bool {
	if e.stopLaunch >= 0 && e.nextLaunch >= e.stopLaunch {
		return false
	}
	return e.limit < 0 || e.nextLaunch < e.limit
}

// finished reports whether the run is complete. Must be called with mu
// held on the real backend.
func (e *engine) finished() bool {
	return e.nIters == 0 && !e.moreToLaunch()
}

// launch admits iterations into the pipeline while the window allows,
// on behalf of the writer behind p. Must be called with mu held.
func (e *engine) launch(p *probe) {
	for e.canLaunch() {
		k := e.nextLaunch
		e.nextLaunch++
		plan := e.app.plan
		// Never empty: the free list holds len(ring) = PipelineDepth+2
		// states and canLaunch admits at most PipelineDepth iterations.
		f := len(e.free) - 1
		it := e.free[f]
		e.free = e.free[:f]
		it.plan = plan
		for i := range it.done {
			it.done[i].Store(false)
			it.crossClaim[i].Store(false)
		}
		it.cancelled.Store(false)
		it.acquired.Store(false)
		for _, snap := range it.mgrOpts {
			snap.entered = false
		}
		clear(it.optStarted)
		it.left.Store(int32(len(plan.Tasks)))
		for i, w := range e.waits {
			it.remaining[i].Store(w)
		}
		for i, jn := range plan.Joins {
			it.joinLeft[i].Store(int32(len(jn.Feeders)))
		}
		// Publish the iteration number last: once a concurrent iterAt
		// probe (which may hold a stale pointer to this state from its
		// previous life) sees iter == k, every reset above is visible.
		it.iter.Store(int64(k))
		slot := &e.ring[k%len(e.ring)]
		if slot.Load() != nil {
			panic(fmt.Sprintf("hinch: iteration ring slot %d still occupied at launch of %d", k%len(e.ring), k))
		}
		slot.Store(it)
		e.nIters++
		p.launch(it, k)
		for _, t := range plan.Tasks {
			back := e.iterAt(k - int(e.widths[t.ID].Load()))
			if back == nil || back.done[t.ID].Load() {
				if it.crossClaim[t.ID].CompareAndSwap(false, true) {
					e.release(k, it, t.ID, p)
				}
			}
		}
	}
}

// enqueue adds a ready job to the dispatch queue: the central heap on
// the sim backend, or a work-stealing deque on the real backend. Jobs
// released by a worker (p is a worker's probe) are not published one
// by one: they collect in the worker's release buffer and go out as a
// single batch — one inflight add, one deque interaction, at most one
// wake — when the worker flushes after the current job (flushReleases).
//
//hinch:hotpath
func (e *engine) enqueue(p *probe, j job) {
	p.enqueue(j)
	switch {
	case e.ws == nil:
		heap.Push(&e.ready, j)
	case p.w != nil:
		p.w.relBuf = append(p.w.relBuf, j)
	default:
		e.ws.push(p, j)
	}
}

// pop removes the highest-priority ready job (oldest iteration first)
// from the sim backend's central queue. ok is false when the queue is
// empty.
func (e *engine) pop() (job, bool) {
	if len(e.ready) == 0 {
		return job{}, false
	}
	return heap.Pop(&e.ready).(job), true
}

// shouldPark reports whether a just-popped job must be held back: it is
// the entry of a manager whose subgraph is halted for reconfiguration
// and belongs to an iteration beyond the halt point ("it can halt the
// managed subgraph for reconfiguration by suspending the execution of
// its subgraph"). Parked jobs are released by checkResumes. Must be
// called with mu held, via admit.
func (e *engine) shouldPark(j job) bool {
	if j.task.Role != graph.RoleManagerEntry {
		return false
	}
	st := e.mgrs[j.task.Manager]
	if st == nil || st.phase == mgrIdle || j.iter <= st.gateAfter {
		return false
	}
	st.parked = append(st.parked, j)
	return true
}

// complete retires a finished job: it marks the task done, releases
// dependents in the same iteration and the same task in the next
// iteration, finalises the iteration when all tasks are done, and
// applies a pending reconfiguration when the halted manager's subgraph
// just became quiescent. The dependency fast path is lock-free; the
// manager and retirement slow paths take mu internally, so complete
// must be called WITHOUT mu held. stall is non-zero when the completion
// applied a reconfiguration: the virtual cycles the splice costs, which
// the sim backend lets elapse. A non-nil error (a failed
// reconfiguration splice) aborts the run and must be propagated by the
// caller.
//
//hinch:hotpath
func (e *engine) complete(j job, p *probe) (stall int64, err error) {
	p.yield(YieldComplete)
	it := e.iterAt(j.iter)
	if it == nil || it.done[j.task.ID].Swap(true) {
		panic(fmt.Sprintf("hinch: double completion of %s@%d", j.task.Name, j.iter))
	}
	for _, succ := range it.plan.DirectSuccs(j.task.ID) {
		e.release(j.iter, it, succ, p)
	}
	// The completion that zeroes a join's counter releases its entries, in
	// ascending ID order — the instant and the order in which the last
	// feeder's own successor loop would have made them ready.
	if jn := j.task.Feeds; jn != graph.NoJoin && it.joinLeft[jn].Add(-1) == 0 {
		for _, succ := range it.plan.Joins[jn].Entries {
			e.release(j.iter, it, succ, p)
		}
	}
	// Cross-iteration release, W iterations ahead: the done flag was
	// published above, so if the target iteration is not visible yet,
	// its launch will observe the flag and claim the release itself.
	// The width is loaded after the done Swap; under Go's seq-cst
	// atomics this orders against setWidth's ring sweep, so a resize
	// either reaches this completion (new width targets the right
	// iteration) or the sweep sees the done flag and claims the release
	// — crossClaim deduplicates when both do.
	wt := int(e.widths[j.task.ID].Load())
	if next := e.iterAt(j.iter + wt); next != nil {
		if next.crossClaim[j.task.ID].CompareAndSwap(false, true) {
			e.release(j.iter+wt, next, j.task.ID, p)
		}
	}
	if j.task.Role == graph.RoleManagerExit {
		e.mu.Lock()
		if st := e.mgrs[j.task.Manager]; st != nil && st.phase == mgrHalted && j.iter == st.gateAfter {
			stall, err = e.applyReconfig(j.task.Manager, st, p)
		}
		e.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	if it.left.Add(-1) == 0 {
		e.mu.Lock()
		e.retireSweep(p)
		e.mu.Unlock()
	}
	return stall, nil
}

// retireSweep retires completed iterations strictly in iteration order,
// starting from the oldest live one. Completion order is monotone
// (iteration k's last task finishes after k-1's, via the cross
// dependency), but on the real backend the workers' lock acquisitions
// are not — retiring out of order would let the live-iteration span
// outgrow the ring even though the live count stays bounded. The sweep
// pins the window to [retireNext, nextLaunch), which the ring size
// strictly covers. Must be called with mu held.
func (e *engine) retireSweep(p *probe) {
	for {
		it := e.iterAt(e.retireNext)
		if it == nil || it.left.Load() != 0 {
			return
		}
		e.retireNext++
		e.retire(it, p)
	}
}

// retire finalises a fully-completed iteration: frees its ring slot and
// its stream-buffer set — it holds one, since every one of its jobs
// passed admit — requeues backpressured jobs, and refills the pipeline.
// Must be called with mu held, via retireSweep.
func (e *engine) retire(it *iterState, p *probe) {
	p.yield(YieldRetire)
	k := int(it.iter.Load())
	e.ring[k%len(e.ring)].Store(nil)
	e.nIters--
	win := e.app.win
	win.put(it.bufSet)
	p.released(e.app.streamList, k, int64(win.active.Load()))
	e.requeueBufParked(p)
	p.retire(it, k, !it.cancelled.Load())
	e.free = append(e.free, it)
	e.checkResumes(p)
	e.launch(p)
}

// checkResumes releases managers in the applied phase once every
// iteration from before the halt has fully retired: the pipeline has
// drained ("the application is run sequentially", §4.3) and refills
// from the parked iterations — the parallelism loss the paper's Figure
// 10 measures. Must be called with mu held.
func (e *engine) checkResumes(p *probe) {
	for mi, name := range e.mgrNames {
		st := e.mgrs[name]
		if st.phase != mgrApplied {
			continue
		}
		drained := true
		e.eachIter(func(it *iterState) {
			if int(it.iter.Load()) <= st.gateAfter {
				drained = false
			}
		})
		if !drained {
			continue
		}
		p.resume(mi, st.gateAfter)
		for _, pj := range st.parked {
			e.enqueue(p, pj)
		}
		st.parked = nil
		st.phase = mgrIdle
		e.launch(p)
	}
}

// release satisfies one dependency of a task and queues it once all its
// dependencies are met. Lock-free; safe with or without mu held.
//
//hinch:hotpath
func (e *engine) release(iter int, it *iterState, taskID int, p *probe) {
	n := it.remaining[taskID].Add(-1)
	if n == 0 {
		e.enqueue(p, job{iter: iter, task: it.plan.Tasks[taskID]})
	}
	if n < 0 {
		panic(fmt.Sprintf("hinch: negative dependency count for task %d@%d", taskID, iter))
	}
}

// noteEOS records that the source hit end-of-stream in iteration k:
// iteration k and everything after it is cancelled, and no further
// iterations launch. Must be called with mu held on the real backend.
func (e *engine) noteEOS(k int) {
	if e.stopLaunch < 0 || k < e.stopLaunch {
		e.stopLaunch = k
	}
	e.eachIter(func(it *iterState) {
		if int(it.iter.Load()) >= k {
			it.cancelled.Store(true)
		}
	})
}

// admission is the dispatch gate's verdict on a popped job.
type admission int

const (
	admitRun  admission = iota // execute the job
	admitSkip                  // complete it as a zero-cost no-op
	admitHeld                  // parked; whoever unblocks it requeues it
)

// admit is the one gate every dispatched job passes, on both backends
// (the real backend's component jobs bypass it only when a lock-free
// look already shows admitRun): a manager entry beyond a halt point
// parks at its manager, a job whose iteration finds no free buffer set
// parks on backpressure, the iteration takes its buffer set if this is
// its first job, and only then is the job run or skipped — so every
// launched iteration acquires exactly once, cancelled or not, and
// whatever runs has its buffers. Must be called with mu held.
//
//hinch:hotpath
func (e *engine) admit(p *probe, j job) admission {
	if e.shouldPark(j) || e.needsBuffers(j) {
		return admitHeld
	}
	e.ensureBuffers(p, j.iter)
	if e.skipExecution(j) {
		return admitSkip
	}
	return admitRun
}

// needsBuffers reports whether the job's iteration must wait for
// stream buffers: the FIFO capacity is exhausted by older iterations.
// If so, the job is parked and re-queued when an iteration retires.
// Must be called with mu held, via admit.
func (e *engine) needsBuffers(j job) bool {
	it := e.iterAt(j.iter)
	if it == nil || it.acquired.Load() {
		return false
	}
	if e.app.win.active.Load() < e.bufCap.Load() {
		return false
	}
	if e.tu != nil {
		e.tu.bufWaits++
	}
	e.bufParked = append(e.bufParked, j)
	return true
}

// requeueBufParked gives the jobs parked on backpressure another try:
// a buffer set came back, or the capacity was raised. The two backing
// arrays rotate so the churn does not allocate. Must be called with mu
// held.
func (e *engine) requeueBufParked(p *probe) {
	parked := e.bufParked
	e.bufParked = e.bufSpare[:0]
	for _, pj := range parked {
		e.enqueue(p, pj)
	}
	e.bufSpare = parked[:0]
}

// ensureBuffers assigns a stream-buffer set to a just-dispatching
// iteration. Deferring the assignment to first dispatch (rather than
// launch) lets the window hand the previous iteration's cache-hot set
// to the next one whenever the scheduler keeps few iterations in
// flight. A set handed out for the first time gets its buffers here,
// in stream order (the sim backend's address layout follows from it).
// Must be called with mu held, via admit.
//
//hinch:hotpath
func (e *engine) ensureBuffers(p *probe, iter int) {
	it := e.iterAt(iter)
	if it == nil || it.acquired.Load() {
		return
	}
	win := e.app.win
	set, fresh := win.take()
	if fresh {
		for _, s := range e.app.streamList {
			s.slots[set] = s.newSlot()
		}
	}
	occ := win.active.Load()
	if e.tu != nil && int(occ) > e.tu.bufHW {
		e.tu.bufHW = int(occ)
	}
	it.bufSet = set
	p.acquired(e.app.streamList, iter, int64(occ))
	// Publish last: execReal's lock-free fast path reads acquired without
	// the engine lock, and the atomic store must make bufSet and the
	// slot pointers above visible to any reader that observes
	// acquired==true.
	p.yield(YieldAcquire)
	it.acquired.Store(true)
}

// skipExecution reports whether the job must run as a zero-cost no-op:
// its iteration was cancelled by EOS, or it belongs to an option that
// is disabled in this iteration's snapshot. Must be called with mu
// held (the option maps are lock-guarded), via admit.
func (e *engine) skipExecution(j job) bool {
	it := e.iterAt(j.iter)
	if it == nil || it.cancelled.Load() {
		return true
	}
	if j.task.Option == "" {
		return false
	}
	owner := e.app.optionOwner[j.task.Option]
	snap := it.mgrOpts[owner]
	if snap == nil || !snap.entered {
		panic(fmt.Sprintf("hinch: option task %s@%d ran before manager %s entry", j.task.Name, j.iter, owner))
	}
	if it.optStarted == nil {
		it.optStarted = map[string]bool{}
	}
	it.optStarted[j.task.Option] = true
	return !snap.opts[j.task.Option]
}

// effectiveOption returns the option state including a manager's
// pending changes.
func (e *engine) effectiveOption(st *mgrState, name string) bool {
	if st.pending != nil {
		if v, ok := st.pending[name]; ok {
			return v
		}
	}
	return e.app.options[name]
}

// managerPoll runs a manager entry or exit job: drain the event queue,
// apply the bound actions (paper §3.4), and — for entries — snapshot
// the option states the iteration will run under. It returns the
// compute ops to charge for overlapped component pre-creation. Must be
// called with mu held.
func (e *engine) managerPoll(p *probe, j job) (ops int64, err error) {
	m := e.app.managers[j.task.Manager]
	if m == nil {
		return 0, fmt.Errorf("hinch: unknown manager %q", j.task.Manager)
	}
	st := e.mgrs[j.task.Manager]
	if j.task.Role == graph.RoleManagerEntry && j.iter > st.lastEntered {
		st.lastEntered = j.iter
	}
	if m.Queue != "" {
		q := e.app.queues[m.Queue]
		drained := q.Drain()
		if len(drained) > 0 {
			p.eventDrain(j.iter, e.app.queueIndex[m.Queue], len(drained))
		}
		for _, ev := range drained {
			for _, bind := range m.Bindings {
				if bind.Event != ev.Name {
					continue
				}
				for _, act := range bind.Actions {
					o, err := e.applyAction(p, m, st, j, ev, act)
					if err != nil {
						return ops, err
					}
					ops += o
				}
			}
			// Events nobody bound are dropped, like unhandled user input.
		}
	}
	if j.task.Role == graph.RoleManagerEntry {
		// The current iteration runs under the applied (not pending)
		// configuration; pending changes land after this iteration
		// leaves the subgraph.
		it := e.iterAt(j.iter)
		snap := it.mgrOpts[j.task.Manager]
		if snap == nil {
			snap = &optSnapshot{opts: make(map[string]bool, len(e.app.options))}
			if it.mgrOpts == nil {
				it.mgrOpts = map[string]*optSnapshot{}
			}
			it.mgrOpts[j.task.Manager] = snap
		}
		snap.entered = true
		clear(snap.opts)
		for k, v := range e.app.options {
			snap.opts[k] = v
		}
	}
	return ops, nil
}

// applyAction performs one bound action of a delivered event:
// enable/disable/toggle stage a pending option flip and halt the
// manager, reconfig records a request, forward re-enqueues the event.
// Must be called with mu held, via managerPoll.
func (e *engine) applyAction(p *probe, m *graph.Node, st *mgrState, j job, ev Event, act graph.EventAction) (ops int64, err error) {
	switch act.Kind {
	case graph.ActionEnable, graph.ActionDisable, graph.ActionToggle:
		cur := e.effectiveOption(st, act.Option)
		want := cur
		switch act.Kind {
		case graph.ActionEnable:
			want = true
		case graph.ActionDisable:
			want = false
		case graph.ActionToggle:
			want = !cur
		}
		if want == cur {
			return 0, nil // "the event is ignored when the option is already in the required state"
		}
		if st.pending == nil {
			st.pending = map[string]bool{}
		}
		st.pending[act.Option] = want
		if st.phase == mgrIdle {
			st.phase = mgrHalted
			// Iterations that already entered the subgraph must drain
			// through the old configuration; detection at an exit may
			// trail entries of later iterations.
			st.gateAfter = j.iter
			if st.lastEntered > st.gateAfter {
				st.gateAfter = st.lastEntered
			}
			p.halt(e.mgrIndex[m.Name], st.gateAfter)
		}
		if want && !e.app.cfg.LazyCreation {
			// Pre-create the option's components now, overlapped with
			// execution, so the quiescent window stays short (§3.4:
			// "these components do not have to be created and
			// initialized during reconfiguration").
			n, err := e.preCreateOption(act.Option)
			if err != nil {
				return 0, err
			}
			ops = int64(n) * createOpsPerComponent
		}
		return ops, nil

	case graph.ActionForward:
		q, ok := e.app.queues[act.Queue]
		if !ok {
			return 0, fmt.Errorf("hinch: manager %q forwards to unknown queue %q", m.Name, act.Queue)
		}
		q.Push(ev)
		return 0, nil

	case graph.ActionReconfig:
		// Broadcast a reconfiguration request to all components in the
		// managed subgraph that listen for them.
		req := act.Request
		if req == "" {
			req = ev.Arg
		}
		for _, t := range e.app.plan.ComponentTasks() {
			if !inScope(t, m.Name) {
				continue
			}
			inst := e.app.instTab[t.ID].Load()
			if inst == nil {
				continue
			}
			if _, ok := inst.comp.(Reconfigurable); ok {
				inst.deliver(req)
			}
		}
		return 0, nil
	}
	return 0, fmt.Errorf("hinch: unknown action kind %v", act.Kind)
}

func inScope(t *graph.Task, manager string) bool {
	for _, m := range t.Scope {
		if m == manager {
			return true
		}
	}
	return false
}

// preCreateOption instantiates an option's components if they do not
// exist yet and returns how many were created.
func (e *engine) preCreateOption(option string) (int, error) {
	created := 0
	for _, t := range e.app.plan.ComponentTasks() {
		if t.Option != option {
			continue
		}
		if e.app.instTab[t.ID].Load() == nil {
			if err := e.app.createInstance(t); err != nil {
				return created, err
			}
			created++
		}
	}
	return created, nil
}

// applyReconfig splices the pending option changes in at subgraph
// quiescence: iterations up to gateAfter have fully left the manager's
// subgraph and later iterations are parked at its entrance. It returns
// the stall to charge; a non-nil error (component creation failed
// inside the quiescent window) must abort the run. Must be called with
// mu held.
func (e *engine) applyReconfig(name string, st *mgrState, p *probe) (int64, error) {
	nChanged, created := 0, 0
	var firstErr error
	for _, t := range e.app.plan.ComponentTasks() {
		if t.Option == "" {
			continue
		}
		want, changed := st.pending[t.Option]
		if !changed {
			continue
		}
		nChanged++
		if !want {
			// "multiple components are destroyed and/or created"
			e.app.instTab[t.ID].Store(nil)
		} else if e.app.instTab[t.ID].Load() == nil {
			// Pre-created at event detection unless LazyCreation (or an
			// externally injected enable) deferred it to this quiescent
			// window, where its cost becomes stall time.
			if err := e.app.createInstance(t); err != nil {
				firstErr = err
				break
			}
			created++
		}
	}
	for opt, v := range st.pending {
		e.app.options[opt] = v
		// Retro-apply to in-flight iterations whose snapshot predates
		// the change, as long as none of the option's tasks have
		// started there — they reach the option region only after the
		// splice, so they may run the new configuration.
		owner := e.app.optionOwner[opt]
		e.eachIter(func(it *iterState) {
			snap := it.mgrOpts[owner]
			if snap != nil && snap.entered && !it.optStarted[opt] {
				snap.opts[opt] = v
			}
		})
	}
	stall := reconfigBaseCycles +
		reconfigPerTaskCycles*int64(nChanged) +
		createOpsPerComponent*int64(created)
	e.stall += stall
	p.apply(e.mgrIndex[name], st.gateAfter, stall)
	// Parked entries stay held until checkResumes sees the pipeline
	// fully drained of pre-halt iterations.
	st.pending = nil
	st.phase = mgrApplied
	return stall, firstErr
}

// executeComponent runs one attempt of a component job in rc (reset in
// place, so a worker reuses one context — and its accumulated-cost
// slices — across jobs). Panics from the component (or an injected
// FaultPanic) are contained: they surface as ordinary errors instead of
// taking down the worker, and the context's next reset clears any
// state the aborted Run accumulated, so the reused RunContext is never
// poisoned. It must be called WITHOUT mu held on the real backend.
func (e *engine) executeComponent(rc *RunContext, j job, inst *instance, inject FaultKind) (err error) {
	// A live job's iteration cannot retire under it, and admit gave it
	// its buffer set before any of its jobs ran.
	rc.reset(e.app, j.task, j.iter, e.iterAt(j.iter).bufSet, e.ws == nil)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hinch: component %s@%d panicked: %v", j.task.Name, j.iter, r)
		}
	}()
	switch inject {
	case FaultError:
		return fmt.Errorf("injected fault")
	case FaultPanic:
		panic("injected fault")
	}
	if inst.recon != nil {
		for _, req := range inst.takeMail() {
			if err := inst.recon.Reconfigure(req); err != nil {
				return fmt.Errorf("hinch: reconfigure %q: %w", j.task.Name, err)
			}
		}
	}
	return inst.comp.Run(rc)
}

// runComponent runs one admitted component job on either backend and
// returns how long it took in the probe's clock domain. It must be
// called WITHOUT mu held. Only that duration differs per backend: on
// sim it is the cost model (overhead, charged compute, memory through
// the tile, virtual backoff and delay); on real it is the dispatch /
// executed clock pair, read only when the tuner or a deadline wants it.
// Everything after is one rule for both: the tuner's busy feed; the
// deadline, where a successful job that took longer than its task's
// deadline degrades but its outputs stand (an attempt cut short by
// cancellation never succeeded, so it never degrades); and the error
// classification. A non-nil err aborts the run and is already recorded
// in e.err.
//
//hinch:hotpath
func (e *engine) runComponent(p *probe, rc *RunContext, j job, core int) (dur int64, err error) {
	inst := e.app.instTab[j.task.ID].Load()
	if inst == nil {
		return 0, e.handleRunError(j, errors.New("no component instance"))
	}
	pol := e.policyFor(j.task)
	var start int64
	if e.ws != nil {
		start = p.dispatch(j, e.tu != nil || pol.Deadline > 0)
	}
	out := e.runPolicied(rc, j, inst, pol)
	if e.ws == nil {
		dur = e.simCost(p, rc, j, core, out.virtual)
	} else {
		dur = p.executed(j, start)
	}
	if e.tu != nil {
		e.tu.busy[j.task.ID].Add(dur)
	}
	if pol.Deadline > 0 && out.ok && dur > int64(pol.Deadline) {
		e.degrade(p, j, "deadline exceeded")
	}
	if out.err != nil {
		return dur, e.handleRunError(j, out.err)
	}
	return dur, nil
}

// runOutcome summarises one policied component execution.
type runOutcome struct {
	err     error // error to hand to handleRunError (EOS or fatal); nil otherwise
	ok      bool  // the last attempt succeeded
	virtual int64 // extra virtual cycles to charge on sim (backoff + injected delay)
}

// runPolicied executes a component job under its failure policy pol:
// consult the fault injector before each attempt, contain failures,
// retry with backoff (pause), and on exhaustion — or a skip-iteration
// policy — hole the iteration and emit a fault event to the owning
// manager. Injection happens before Run so a failed injected attempt
// never has partial side effects. Lock-free; must be called WITHOUT mu
// held.
func (e *engine) runPolicied(rc *RunContext, j job, inst *instance, pol graph.FailurePolicy) runOutcome {
	var out runOutcome
	for attempt := 0; ; attempt++ {
		var f Fault
		if e.faults != nil {
			f = e.faults.Inject(j.task.Name, j.iter, attempt)
			if f.Kind == FaultDelay {
				// A latency spike at the component boundary; the attempt
				// itself then runs normally. Cancelled mid-spike, the
				// attempt is skipped: the job completes as a no-op of its
				// cancelled iteration and the pipeline drains.
				if !e.pause(&out, f.Delay) {
					return out
				}
				f = Fault{}
			}
		}
		err := e.executeComponent(rc, j, inst, f.Kind)
		if err == nil {
			out.ok = true
			return out
		}
		if errors.Is(err, EOS) {
			out.err = err
			return out
		}
		rc.p.fault(j, attempt+1)
		if pol.Action == graph.PolicyRetry && attempt < pol.Retries {
			back := pol.BackoffAt(attempt)
			if !e.pause(&out, back) {
				// Cancelled mid-backoff: the re-attempt never happens,
				// so it must not count in Report.Retries. The failed
				// attempt above already counted as a fault; the job
				// completes as a no-op of its (now cancelled) iteration.
				return out
			}
			rc.p.retry(j, back)
			continue
		}
		if pol.Action == graph.PolicyFail {
			out.err = err
			return out
		}
		// skip-iteration, or retries exhausted: drop the iteration and
		// degrade through the owning manager. With no manager to hear
		// the fault the failure escalates to a run abort.
		if !e.faultIteration(rc.p, j, err) {
			out.err = fmt.Errorf("no enclosing manager handles faults: %w", err)
		}
		return out
	}
}

// faultIteration holes iteration j.iter after a contained failure: the
// iteration is cancelled — its remaining jobs, the sink included, run
// as zero-cost no-ops and retirement does not count it — and a fault
// event is pushed to the owning manager's queue so ordinary bindings
// can degrade the configuration. It reports false when no enclosing
// manager polls a queue (the failure must escalate). Lock-free: the
// cancel is an atomic store and the queue serialises itself.
func (e *engine) faultIteration(p *probe, j job, cause error) bool {
	if e.faultRoute == nil || e.faultRoute[j.task.ID] == nil {
		return false
	}
	if it := e.iterAt(j.iter); it != nil {
		it.cancelled.Store(true)
	}
	e.degrade(p, j, cause.Error())
	return true
}

// degrade emits a synthetic fault(task, reason) event into the queue of
// the innermost queued manager enclosing j's task and counts the
// degradation. The event is an ordinary XSPCL event — bindings like
// <on event="fault" action="disable" option="..."/> perform the actual
// reconfiguration through the unchanged manager protocol. A task with
// no fault route degrades silently (the analyzer's faults pass flags
// such programs). Lock-free.
func (e *engine) degrade(p *probe, j job, reason string) {
	if e.faultRoute == nil {
		return
	}
	q := e.faultRoute[j.task.ID]
	if q == nil {
		return
	}
	depth := q.Push(Event{Name: graph.FaultEvent, Arg: fmt.Sprintf("%s@%d: %s", j.task.Name, j.iter, reason)})
	p.degrade(j, e.faultMgr[j.task.ID], depth)
}

// handleRunError classifies a component error: EOS cancels the tail of
// the run and returns nil; anything else aborts it and returns the
// run's error. Distinct failures from concurrent workers aggregate with
// errors.Join so Run reports all of them, not just whichever worker
// took the lock first. Must be called WITHOUT mu held.
func (e *engine) handleRunError(j job, err error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if errors.Is(err, EOS) {
		e.noteEOS(j.iter)
		return nil
	}
	e.err = errors.Join(e.err, fmt.Errorf("hinch: %s@%d: %w", j.task.Name, j.iter, err))
	return e.err
}
