package hinch

import (
	"errors"
	"fmt"

	"xspcl/internal/graph"
)

// executeComponent runs one attempt of a component job in rc (reset in
// place, so a worker reuses one context — and its accumulated-cost
// slices — across jobs). Panics from the component (or an injected
// FaultPanic) are contained: they surface as ordinary errors instead of
// taking down the worker, and the context's next reset clears any
// state the aborted Run accumulated, so the reused RunContext is never
// poisoned. It must be called WITHOUT mu held on the real backend.
func (e *engine) executeComponent(rc *RunContext, j job, inst *instance, inject FaultKind) (err error) {
	// j.it, the job's iteration, cannot retire under it, and admit gave
	// it its buffer set before any of its jobs ran.
	rc.reset(e.app, j.task, j.iter, j.it.bufSet, e.ws == nil)
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
		for _, req := range inst.takeMail(j.iter) {
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
// executed clock pair, read only when a deadline or telemetry wants it.
// Everything after is one rule for both: the deadline, where a
// successful job that took longer than its task's deadline degrades
// but its outputs stand (an attempt cut short by cancellation never
// succeeded, so it never degrades); and the error classification. A
// non-nil err aborts the run and is already recorded in e.err.
//
//hinch:hotpath
func (e *engine) runComponent(p *probe, rc *RunContext, j job, core int) (dur int64, err error) {
	inst := e.app.instTab[j.task.ID].Load()
	if inst == nil {
		return 0, e.handleRunError(j, errors.New("no component instance"))
	}
	pol := e.policies[j.task.ID]
	var start int64
	if e.ws != nil {
		start = p.dispatch(j, pol.Deadline > 0)
	}
	out := e.runPolicied(rc, j, inst, pol)
	if e.ws == nil {
		dur = e.simCost(p, rc, j, core, out.virtual)
	} else {
		dur = p.executed(j, start)
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
		f := rc.p.inject(j, attempt)
		if f.Kind == FaultDelay {
			// A latency spike at the component boundary; the attempt
			// itself then runs normally. Cancelled mid-spike, the attempt
			// is skipped: the job completes as a no-op of its cancelled
			// iteration and the pipeline drains.
			if !e.pause(&out, f.Delay) {
				return out
			}
			f = Fault{}
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
	if e.faultRoute[j.task.ID] == nil {
		return false
	}
	j.it.cancelled.Store(true)
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
	q := e.faultRoute[j.task.ID]
	if q == nil {
		return
	}
	depth := q.push(Event{Name: graph.FaultEvent, Arg: fmt.Sprintf("%s@%d: %s", j.task.Name, j.iter, reason)}, j.iter, j.task.ID)
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
