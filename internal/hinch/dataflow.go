package hinch

import (
	"container/heap"
	"fmt"
	"sync/atomic"

	"xspcl/internal/graph"
)

// job identifies one schedulable unit: one task of one iteration. it is
// that iteration's state, set by release, which already holds it; a
// job's state cannot retire or be recycled while the job is live (the
// iteration's left-count waits for it or for a task that depends on
// it), so every stage of the job path reads j.it instead of probing the
// iteration table. Jobs are queued by value: 24 bytes.
type job struct {
	iter int
	task *graph.Task
	it   *iterState
}

// iterState tracks the progress of one in-flight iteration.
//
// The dependency-tracking fields (remaining, joinLeft, crossOut) are
// plain slices, read and written only through the sync/atomic
// functions once the state is published, so that the real backend's
// workers can retire jobs and release dependents without the engine
// lock. launch resets them in bulk, with copy and clear, before it
// publishes the state through iter (see there). left and cancelled
// are atomic values. The sim backend is single-threaded, so the
// atomics are uncontended there and the discrete-event schedule stays
// deterministic.
type iterState struct {
	// iter is the iteration this state currently represents, -1 while
	// it is free. It is atomic because iterAt probes the table without
	// mu and validates against it, and may observe the state
	// mid-recycle. launch stores iter LAST in the recycle sequence, so a
	// probe that reads the new value is guaranteed (seq-cst store/load
	// pairing) to see every other field already reset for the new
	// iteration; any other value makes the probe reject the state.
	// Written only under mu.
	iter      atomic.Int64
	remaining []int32 // unmet dependency count per task
	joinLeft  []int32 // feeders not yet completed, per plan join
	// crossOut is each task's handshake with its job W iterations ahead
	// (W its replica width): the completion here swaps in crossDone,
	// that iteration's launch CASes 0 -> crossLaunched, and whichever
	// comes second performs the cross release, exactly once.
	crossOut  []uint32
	left      atomic.Int32 // retiring tasks (engine.retires) to complete
	cancelled atomic.Bool

	// bufSet is the stream-buffer set the iteration holds (see window),
	// -1 until its first dispatch takes one. Written under mu by a root
	// job's admit; see ensureBuffers for who reads it without the lock.
	// A job that reads it before the acquisition indexes slots[-1] and
	// panics rather than silently using set 0.
	bufSet int

	// launchTS is the launching probe's clock, kept while telemetry or a
	// tracer is attached; retire subtracts it to record the end-to-end
	// iteration latency. Written at launch and read at retire, both
	// under mu on real, on the single goroutine on sim.
	launchTS int64
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

// canLaunch reports whether another iteration may enter the pipeline:
// fewer than bufCap, the sets the window owns, are in flight, so it
// will find a free buffer set. While any manager is halted for
// reconfiguration no new iterations are admitted: "when the
// application is stopped for reconfiguration, the amount of
// parallelism in the application drops until the application is run
// sequentially" (§4.3). Must be called with mu held.
func (e *engine) canLaunch() bool {
	if e.err != nil {
		return false
	}
	if e.nextLaunch-e.retireNext >= e.bufCap {
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
	return e.retireNext == e.nextLaunch && !e.moreToLaunch()
}

// launch admits iterations into the pipeline while the window allows,
// on behalf of the writer behind p. Iteration k takes states[k%bufCap],
// free because canLaunch keeps k-bufCap retired. The state is reset in
// bulk — its counters copied from the launch values (e.waits,
// e.feeders), its flags cleared — with plain stores: no worker reads
// it until the iter store below publishes it. Must be called with mu
// held.
func (e *engine) launch(p *probe) {
	for e.canLaunch() {
		k := e.nextLaunch
		e.nextLaunch++
		it := e.states[k%len(e.states)]
		e.resetIter(it)
		// Publish the iteration number last: once a concurrent iterAt
		// probe sees iter == k, every reset above is visible.
		it.iter.Store(int64(k))
		p.launch(it, k)
		for t, w := range e.widths {
			// Under mu the iteration W back cannot retire mid-handshake.
			back := e.iterAt(k - w)
			if back == nil || !atomic.CompareAndSwapUint32(&back.crossOut[t], 0, crossLaunched) {
				e.release(k, it, t, p)
			}
		}
	}
}

// resetIter readies a free state for its next iteration: every task
// waits for its launch count of dependencies and every join for all its
// feeders, no handshake has begun, every retiring task is left, and the
// iteration is neither cancelled nor holding a buffer set. The state
// must be free (iter -1); launch publishes it afterwards.
func (e *engine) resetIter(it *iterState) {
	copy(it.remaining, e.waits)
	copy(it.joinLeft, e.feeders)
	clear(it.crossOut)
	it.cancelled.Store(false)
	it.bufSet = -1
	it.left.Store(e.nRetires)
}

// enqueue adds a ready job to the dispatch queue: the central heap on
// the sim backend, or a work-stealing deque on the real backend. On
// real every writer that releases jobs is a worker (the initial launch
// acts through worker 0's probe), and its releases are not published
// one by one: they collect in the worker's release buffer and go out
// as a single batch — one deque interaction, at most one wake — when
// the worker flushes after the current job (flushReleases). Until then
// no other worker can run them, which complete relies on.
//
//hinch:hotpath
func (e *engine) enqueue(p *probe, j job) {
	p.enqueue(j)
	if e.ws == nil {
		heap.Push(&e.ready, j)
		return
	}
	p.w.relBuf = append(p.w.relBuf, j)
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

// Handshake states of iterState.crossOut.
const (
	crossDone     = 1 // the task completed in this iteration
	crossLaunched = 2 // the iteration W ahead launched first
)

// complete retires a finished job: it marks the task done, releases
// dependents in the same iteration and the same task in the next
// iteration, finalises the iteration when its retiring tasks are done,
// and applies a pending reconfiguration when the halted manager's
// subgraph just became quiescent. The job's own iteration is j.it; only
// the cross-iteration release probes the iteration table, for the
// iteration W ahead. The dependency fast path is lock-free; the manager
// and retirement slow paths take mu internally, so complete must be
// called WITHOUT mu held. stall is non-zero when the completion applied
// a reconfiguration: the virtual cycles the splice costs, which the sim
// backend lets elapse. A non-nil error (a failed reconfiguration
// splice) aborts the run and must be propagated by the caller.
//
// A task that does not retire its iteration touches j.it last in its
// last release there: a task that depends on that release must still
// complete, and a worker's own releases wait in its buffer until
// complete returns, so the iteration cannot retire before then.
//
//hinch:hotpath
func (e *engine) complete(j job, p *probe) (stall int64, err error) {
	p.yield(YieldComplete)
	it := j.it
	// A stale or repeated job: its state moved on, or the task is done.
	out := uint32(crossDone)
	if it.iter.Load() == int64(j.iter) {
		out = atomic.SwapUint32(&it.crossOut[j.task.ID], crossDone)
	}
	if out == crossDone {
		panic(fmt.Sprintf("hinch: double completion of %s@%d", j.task.Name, j.iter))
	}
	for _, succ := range e.app.plan.DirectSuccs(j.task.ID) {
		e.release(j.iter, it, succ, p)
	}
	// The completion that zeroes a join's counter releases its entries, in
	// ascending ID order — the instant and the order in which the last
	// feeder's own successor loop would have made them ready.
	if jn := j.task.Feeds; jn != graph.NoJoin && atomic.AddInt32(&it.joinLeft[jn], -1) == 0 {
		for _, succ := range e.app.plan.Joins[jn].Entries {
			e.release(j.iter, it, succ, p)
		}
	}
	// Cross-iteration release, W iterations ahead, when that iteration
	// launched first (it is live: its job waits on this); else its
	// launch releases it.
	if out == crossLaunched {
		wt := e.widths[j.task.ID]
		e.release(j.iter+wt, e.iterAt(j.iter+wt), j.task.ID, p)
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
	if e.retires[j.task.ID] && it.left.Add(-1) == 0 {
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
// are not. The sweep keeps the in-flight iterations the range
// [retireNext, nextLaunch), which the iteration table and every count
// of iterations in flight rely on. Must be called with mu held.
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

// retire finalises a fully-completed iteration: frees its state (iter
// -1, so iterAt no longer finds it) and its stream-buffer set — it
// holds one, since every one of its jobs passed admit — and refills
// the pipeline. Must be called with mu held, via retireSweep.
func (e *engine) retire(it *iterState, p *probe) {
	p.yield(YieldRetire)
	k := int(it.iter.Load())
	it.iter.Store(-1)
	e.win.put(it.bufSet)
	p.released(k, e.win.active.Load())
	p.retire(it, k, !it.cancelled.Load())
	e.checkResumes(p)
	e.launch(p)
}

// release satisfies one dependency of task taskID in iteration iter,
// whose state is it, and queues the task once all its dependencies are
// met; the job carries it, so no later stage probes the table for it.
// Lock-free; safe with or without mu held.
//
//hinch:hotpath
func (e *engine) release(iter int, it *iterState, taskID int, p *probe) {
	n := atomic.AddInt32(&it.remaining[taskID], -1)
	if n == 0 {
		e.enqueue(p, job{iter: iter, task: e.app.plan.Tasks[taskID], it: it})
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
	for i := max(k, e.retireNext); i < e.nextLaunch; i++ {
		e.states[i%len(e.states)].cancelled.Store(true)
	}
}
