package hinch

// This file implements the run's cooperative cancellation. A run
// started with App.RunContext watches the context's done channel at
// the engine's own pace and, when it fires, reuses the EOS machinery:
// noteCancel stops further launches and marks every in-flight
// iteration cancelled, so the remaining jobs drain through the
// dependency machinery as zero-cost no-ops, every iteration retires
// (uncounted), and the stream slots and iteration states come back
// exactly as on a clean finish. Cancellation is therefore never an
// abort — it is an early EOS injected from outside the graph — and a
// cancelled run returns a valid partial Report (Outcome =
// OutcomeCancelled) with a nil error.
//
// Both backends observe the done channel through one poll, pollCancel,
// which takes mu only when it first sees the context fired. It runs at:
//
//   - sim: the top of runSim's event loop only, so the sweep lands on a
//     virtual-cycle boundary. A cancel raised from inside the simulation
//     (a component or fault injector calling the CancelFunc closes the
//     done channel synchronously) is then as deterministic as any other
//     sim run; one raised from another goroutine is still honoured at
//     the next boundary, just not reproducibly placed.
//   - real: every worker after each job, before it publishes the jobs
//     that one released (runWorker), so a cancel takes effect within one
//     job per worker and no job a worker releases after it runs;
//     runReal's pre-launch and post-join checks; runClock, the one
//     background goroutine, which backstops workers parked or deep in
//     long components; and a policy sleep (pause) the cancel cut short,
//     so a worker in a retry backoff or an injected delay wakes at once.

import "time"

// noteCancel cancels the whole run, as an EOS at the oldest in-flight
// iteration: no further iterations launch and every in-flight one is
// marked cancelled, which turns its remaining jobs into zero-cost
// no-ops (the EOS drain path). Idempotent. Must be called with mu held.
func (e *engine) noteCancel() {
	if e.cancelled.Load() {
		return
	}
	e.noteEOS(e.retireNext)
	// Publish last: pollCancel returns on this flag without the lock, so
	// a worker that sees it must also see every iteration marked.
	e.cancelled.Store(true)
}

// pollCancel is the run's one cancellation observation point: a
// non-blocking probe of the run context's done channel. The common
// paths — no context, or already swept — are a single predictable
// branch; only the first caller to observe the fired context pays for
// the lock and the sweep. Must be called WITHOUT mu held.
//
//hinch:hotpath
func (e *engine) pollCancel() {
	if e.ctxDone == nil || e.cancelled.Load() {
		return
	}
	select {
	case <-e.ctxDone:
		e.mu.Lock()
		e.noteCancel()
		e.mu.Unlock()
	default:
	}
}

// pause lets d pass in the backend's clock domain: on sim it is charged
// to the job as virtual cycles, on real the worker sleeps. It reports
// false when the run context fired first; the run is then swept, and
// the caller abandons its attempt.
func (e *engine) pause(out *runOutcome, d time.Duration) bool {
	if e.ws == nil {
		out.virtual += int64(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-e.ctxDone:
		e.pollCancel()
		return false
	}
}
