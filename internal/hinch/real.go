package hinch

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xspcl/internal/graph"
)

// runReal drives the engine with a pool of worker goroutines over the
// work-stealing dispatch layer (sched.go) — the runtime's actual
// parallel execution mode, used by the examples and concurrency tests.
// Virtual-cost accounting is inert; Report.Wall carries the host
// elapsed time.
func (e *engine) runReal() (*Report, error) {
	start := time.Now()
	for i := range e.probes {
		e.probes[i].start = start
	}
	// A context cancelled before the run starts launches nothing:
	// noteCancel caps stopLaunch at zero, so the pre-cancelled case
	// deterministically processes zero iterations on this backend too,
	// not just on sim.
	e.pollCancel()
	e.seed()

	var quit, clockDone chan struct{}
	if e.tm != nil || e.ctxDone != nil {
		quit, clockDone = make(chan struct{}), make(chan struct{})
		go e.runClock(quit, clockDone)
	}

	// The worker rule: all Cores workers exist for the whole run. They
	// find the jobs seed published on worker 0's deque, park when
	// nothing is runnable, and return once the run is done.
	var wg sync.WaitGroup
	for _, w := range e.ws.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runWorker(w)
		}()
	}
	wg.Wait()
	if quit != nil {
		// Joined before RunContext ends the tracer (a stall emits a
		// trace event), so a run leaks no goroutine.
		close(quit)
		<-clockDone
	}
	// A cancel that raced run teardown is still recorded: the report
	// must say cancelled when a policy sleep was cut short, and a cancel
	// that lost the race against natural completion claims the outcome
	// the caller asked for (either would have been valid).
	e.pollCancel()
	if e.err != nil {
		return nil, e.err
	}
	rep := e.report()
	rep.Wall = time.Since(start)
	return rep, nil
}

// seed is the initial launch. It runs before any worker starts, so it
// acts as worker 0: launch releases the first iterations' roots
// through worker 0's probe into its release buffer, and publish puts
// them on its deque, iteration 0 at the owner's end and later
// iterations (roots of width > 1) at the steal end.
func (e *engine) seed() {
	w := e.ws.workers[0]
	e.mu.Lock()
	e.launch(w.p)
	e.mu.Unlock()
	e.publish(w, 0)
}

// runClock is the real backend's one background goroutine; it closes
// exited once quit closes. It fires the due watchdog checks under mu —
// they ride the same slow path as reconfigurations — and
// sweeps the run when the context fires, which backstops workers parked
// or deep in a long component. The sweep creates no new work, it only
// turns queued jobs into no-ops, so no parked worker needs waking.
func (e *engine) runClock(quit <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	ctxDone := e.ctxDone
	p := &e.probes[0]
	// The first fire only learns when the first check falls due; with no
	// watchdog, tick sets the timer past any run's end.
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-quit:
			return
		case <-ctxDone:
			e.pollCancel()
			ctxDone = nil
		case <-timer.C:
			e.mu.Lock()
			next := e.tick(p.wall())
			e.mu.Unlock()
			timer.Reset(time.Duration(next - p.wall()))
		}
	}
}

// runWorker is one worker goroutine's loop: pop from the local deque
// (the tail: the same-iteration successors of the last job first), else
// steal from another worker, else park; run the job; publish its
// releases.
//
//hinch:hotpath
func (e *engine) runWorker(w *wsWorker) {
	s := e.ws
	for !s.done.Load() {
		j, ok := w.dq.pop()
		if !ok {
			j, ok = s.steal(w)
		}
		if !ok {
			if s.park(w) {
				// Nothing queued, nothing executing: the run is over
				// (or wedged — surfaced as an error, never a hang).
				e.checkTermination()
			}
			continue
		}
		e.execReal(w, j)
		// Cancellation probe: a fired run context is swept before this
		// job's releases are published, so none of them runs in a
		// cancelled iteration (runClock covers parked workers).
		e.pollCancel()
		e.publish(w, j.iter)
	}
}

// publish makes w's release buffer runnable as one batch, by the
// dispatch rule: finish the oldest iteration first, let next-iteration
// work fill idle workers. The jobs of iteration iter go in at the
// owner's end, every other one (the task's next job, iterations the
// completion launched, requeued held jobs) beneath them at the steal
// end, so the owner pops iter first and a thief takes the next
// iteration. One deque lock and at most one wake cover the batch; the
// owner pops its last job itself, so only a longer batch wakes a thief.
//
//hinch:hotpath
func (e *engine) publish(w *wsWorker, iter int) {
	buf := w.relBuf
	if len(buf) == 0 {
		return
	}
	w.relBuf = buf[:0]
	// A stable partition, in place: releases arrive in completion order
	// and batches are short.
	n := 0
	for i := range buf {
		if x := buf[i]; x.iter != iter {
			copy(buf[n+1:i+1], buf[n:i])
			buf[n] = x
			n++
		}
	}
	w.p.publish(len(buf))
	w.dq.pushN(buf)
	if len(buf) > 1 && e.ws.signalWork() {
		w.p.woke()
	}
}

// checkTermination decides, under the engine lock, whether a completed
// idle census (sched.park) means completion or a stall, and stops the
// run either way. The census is final: no worker can release a job
// again, and only workers release jobs once seed has returned.
func (e *engine) checkTermination() {
	e.mu.Lock()
	if !e.ws.done.Load() && !e.finished() && e.err == nil {
		e.err = fmt.Errorf("hinch: scheduler stalled with %d iterations in flight", e.nextLaunch-e.retireNext)
	}
	e.mu.Unlock()
	e.ws.finish()
}

// execReal runs one job. A non-root component job that skipExecution
// lets run is admitRun on sight — its iteration holds its stream
// buffers (see ensureBuffers) — and goes straight to execution without
// the engine lock; every other job passes the gate (admit) under it,
// and manager jobs also execute there.
//
//hinch:hotpath
func (e *engine) execReal(w *wsWorker, j job) {
	mgr := j.task.Role != graph.RoleComponent
	// j.it is the job's iteration, set by release: a live job's
	// iteration cannot retire under it (its left-count waits for this
	// job or a task that depends on it), so no table probe is needed.
	// The cancelled check is racy by design: a concurrent noteEOS can
	// cancel the iteration just after we load false, in which case the
	// component runs redundantly but harmlessly — cancelled iterations'
	// results are discarded at retirement. A root (launch count 1) may
	// be its iteration's first job, so it may have buffers to take.
	if mgr || e.waits[j.task.ID] == 1 || e.skipExecution(j) {
		e.mu.Lock()
		switch e.admit(w.p, j) {
		case admitHeld:
			e.mu.Unlock()
			return
		case admitSkip:
			e.mu.Unlock()
			w.p.skip(j, w.id)
			e.finishReal(w, j)
			return
		}
		if mgr {
			start := w.p.dispatch(j, false)
			_, err := e.managerPoll(w.p, j)
			e.mu.Unlock()
			if err != nil {
				e.failReal(err)
				return
			}
			w.p.executed(j, start)
			e.finishReal(w, j)
			return
		}
		e.mu.Unlock()
	}

	// Stretch the window between the lock-free cancelled check above
	// and the component's first stream access.
	w.p.yield(YieldDispatch)
	if _, err := e.runComponent(w.p, &w.rc, j, w.id); err != nil {
		e.ws.finish()
		return
	}
	// After EOS the tail of the run is cancelled, but this job still
	// completes so the pipeline drains.
	e.finishReal(w, j)
}

// finishReal retires a job through complete(). Errors surfacing from
// completion (a failed reconfiguration splice) abort the run
// explicitly; a reconfiguration's stall is virtual time, inert on the
// real backend.
func (e *engine) finishReal(w *wsWorker, j job) {
	if _, err := e.complete(j, w.p); err != nil {
		e.failReal(err)
	}
}

// failReal records an error (aggregating with any the run already
// collected) and stops the run.
func (e *engine) failReal(err error) {
	e.mu.Lock()
	e.err = errors.Join(e.err, err)
	e.mu.Unlock()
	e.ws.finish()
}
