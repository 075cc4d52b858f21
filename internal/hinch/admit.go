package hinch

import "xspcl/internal/graph"

// admission is the dispatch gate's verdict on a popped job.
type admission int

const (
	admitRun  admission = iota // execute the job
	admitSkip                  // complete it as a zero-cost no-op
	admitHeld                  // parked at its manager; checkResumes requeues it
)

// admit is the one gate every dispatched job passes, on both backends
// (the real backend's non-root component jobs bypass it when a
// lock-free look already shows admitRun): a manager entry beyond a
// halt point parks at its manager, the iteration takes its buffer set
// if this is its first job, and only then is the job run or skipped —
// so every launched iteration acquires exactly once, cancelled or not,
// and whatever runs has its buffers. A set is always free here, because
// canLaunch admits an iteration only while fewer than bufCap are in
// flight. Must be called with mu held.
//
//hinch:hotpath
func (e *engine) admit(p *probe, j job) admission {
	if e.shouldPark(j) {
		return admitHeld
	}
	e.ensureBuffers(p, j)
	if e.skipExecution(j) {
		return admitSkip
	}
	return admitRun
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

// ensureBuffers assigns a stream-buffer set to a just-dispatching
// iteration, j's, unless it holds one (bufSet >= 0). Deferring the
// assignment to first dispatch (rather than launch) lets the window
// hand the previous iteration's cache-hot set to the next one whenever
// the scheduler keeps few iterations in flight. A set handed out for
// the first time gets its buffers here, in stream order (the sim
// backend's address layout follows from it).
//
// Only a root job (engine.waits) can be the first of its iteration to
// get here: every other job is released by a job of its iteration that
// passed admit, or descends from one that did. So the real backend
// sends every root through admit, and its other jobs read bufSet and
// the slots without the lock: their release chain of atomic updates
// orders them after the acquisition. Must be called with mu held, via
// admit.
//
//hinch:hotpath
func (e *engine) ensureBuffers(p *probe, j job) {
	it := j.it
	if it.bufSet >= 0 {
		return
	}
	set, fresh := e.win.take()
	if fresh {
		for _, s := range e.app.streamList {
			s.slots[set] = s.newSlot()
		}
	}
	it.bufSet = set
	p.acquired(j, e.win.active.Load())
}

// skipExecution reports whether the job must run as a zero-cost no-op:
// its iteration was cancelled by EOS, or an option enclosing its task is
// off (App.off). Lock-free.
//
//hinch:hotpath
func (e *engine) skipExecution(j job) bool {
	return j.it.cancelled.Load() || e.app.off[j.task.ID].Load()
}
