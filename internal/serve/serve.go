// Package serve is the multi-session supervisor: a long-lived pool
// that admits XSPCL applications as sessions against configurable
// limits, queues or rejects over-limit submissions, isolates faults,
// and drains gracefully.
//
// The runtime below this layer is single-shot — one hinch.App runs one
// program once. A service embedding the runtime needs the missing
// lifecycle half: admission control (never oversubscribe the host),
// backpressure (a bounded queue, then fast typed rejection instead of
// unbounded latency), per-session deadlines and cancellation (riding
// App.RunContext), panic containment (a session that dies takes its
// outcome slot, not the process), and a drain path for deploys (stop
// admitting, give running sessions a grace window, cancel stragglers).
//
// Accounting is exact and closed: every Submit increments Submitted
// and lands in exactly one of Rejected or Admitted, and every admitted
// session ends in exactly one of Completed, Degraded, Cancelled or
// Failed. Stats computes the residual (admitted minus settled minus
// live); the soak harness asserts it is zero at every observation
// point, so a lost session is a test failure, not a log line.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"xspcl/internal/hinch"
)

// Typed admission errors. Callers match with errors.Is; both mean "not
// admitted, retry elsewhere/later", returned fast (no blocking).
var (
	// ErrOverloaded rejects a submission when the session and worker
	// limits are saturated and the admission queue is full.
	ErrOverloaded = errors.New("serve: overloaded: session limits reached and admission queue full")
	// ErrDraining rejects every submission after Drain began.
	ErrDraining = errors.New("serve: draining: not admitting new sessions")
)

// Limits configures the supervisor's admission control. The zero value
// of a field means "no limit" (MaxSessions falls back to a sane
// default, since a supervisor with no concurrency bound at all defeats
// its purpose).
type Limits struct {
	// MaxSessions bounds concurrently running sessions (default 4).
	MaxSessions int
	// MaxWorkers bounds the sum of Job.Cores across running sessions
	// (0 = unbounded). A single job wider than the bound is still
	// admitted when it would run alone — otherwise it could never run.
	MaxWorkers int
	// QueueDepth bounds the FIFO admission queue holding submissions
	// that exceed the running limits (0 = reject immediately instead).
	QueueDepth int
	// SessionDeadline caps each session's run wall time; past it the
	// session's context fires and the run drains to a cancelled partial
	// report (0 = no deadline).
	SessionDeadline time.Duration
	// DrainGrace is how long Drain lets running sessions finish before
	// cancelling the stragglers (0 = cancel immediately).
	DrainGrace time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxSessions <= 0 {
		l.MaxSessions = 4
	}
	return l
}

// State is a session's position in its lifecycle.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
)

// Outcome is how a finished session settled. Every admitted session
// ends in exactly one of these.
type Outcome string

const (
	// OutcomeCompleted: the run finished all iterations cleanly.
	OutcomeCompleted Outcome = "completed"
	// OutcomeDegraded: the run finished but degraded at least one
	// component (fault-tolerance policies fired).
	OutcomeDegraded Outcome = "degraded"
	// OutcomeCancelled: the session's context fired (caller cancel,
	// deadline, or drain) and the run drained to a partial report.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeFailed: the session errored — app construction failed, the
	// run aborted, or the session goroutine panicked (contained).
	OutcomeFailed Outcome = "failed"
)

// Job describes one session to admit: a factory for the app (built
// inside the session goroutine, so construction cost and panics are
// isolated), the iteration budget, and the worker share this session
// counts against Limits.MaxWorkers.
type Job struct {
	Name string
	// Cores is the worker share for admission accounting; it should
	// match the app's Config.Cores (the supervisor cannot see inside
	// the factory). Values < 1 count as 1.
	Cores int
	// Iterations is passed to RunContext.
	Iterations int
	// New builds the session's app. Called once, in the session's own
	// goroutine, after admission promotes the session to running.
	New func() (*hinch.App, error)
}

// Session is the handle returned by Submit. All methods are safe from
// any goroutine.
type Session struct {
	ID   int64
	Name string

	sup    *Supervisor
	job    Job
	cores  int
	runCtx context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    State
	outcome  Outcome
	err      error
	app      *hinch.App
	rep      *hinch.Report
	started  time.Time
	finished time.Time
}

// Cancel fires the session's context: a queued session settles
// cancelled without running; a running one drains to a partial report.
// Idempotent.
func (s *Session) Cancel() { s.cancel() }

// Done closes when the session has settled.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session settles and returns its outcome, the
// run's report (nil when the session failed before producing one), and
// the error for failed sessions.
func (s *Session) Wait() (Outcome, *hinch.Report, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outcome, s.rep, s.err
}

// Status is one session's externally visible state, as served by the
// ops surface.
type Status struct {
	ID      int64   `json:"id"`
	Name    string  `json:"name"`
	State   State   `json:"state"`
	Outcome Outcome `json:"outcome,omitempty"`
	Cores   int     `json:"cores"`
	Error   string  `json:"error,omitempty"`
	// Elapsed is the wall time since the session started running
	// (final once done); zero while queued.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Live run counters, from the app's lock-free snapshot.
	Jobs       int64 `json:"jobs"`
	Iterations int   `json:"iterations"`
	Stalled    bool  `json:"stalled"`
}

func (s *Session) status(now time.Time) Status {
	s.mu.Lock()
	st := Status{
		ID: s.ID, Name: s.Name, State: s.state, Outcome: s.outcome,
		Cores: s.cores,
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	switch {
	case s.state == StateDone && !s.started.IsZero():
		st.Elapsed = s.finished.Sub(s.started)
	case s.state == StateRunning:
		st.Elapsed = now.Sub(s.started)
	}
	app, rep := s.app, s.rep
	s.mu.Unlock()
	// One read of the run's Snapshot: the report's final one, or a live
	// one taken outside the session lock — it is lock-free on the app
	// side and must not serialise against the session settling.
	var snap hinch.Snapshot
	switch {
	case rep != nil:
		snap = rep.Snapshot
	case app != nil:
		snap = app.Snapshot()
	}
	st.Jobs, st.Iterations, st.Stalled = snap.Jobs, snap.Iterations, snap.Stalled
	return st
}

// Stats is the supervisor's exact accounting. Closed-sum invariants:
//
//	Submitted == Admitted + Rejected
//	Admitted  == Running + Queued + Completed + Degraded + Cancelled + Failed
//
// Residual() computes the second equation's slack; it is zero at every
// consistent observation point.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`

	Running int `json:"running"`
	Queued  int `json:"queued"`

	Completed int64 `json:"completed"`
	Degraded  int64 `json:"degraded"`
	Cancelled int64 `json:"cancelled"`
	Failed    int64 `json:"failed"`

	WorkersInUse int  `json:"workers_in_use"`
	Draining     bool `json:"draining"`
}

// Residual is Admitted minus every state an admitted session can be
// in. Non-zero means a session was lost or double-counted — a bug.
func (st Stats) Residual() int64 {
	return st.Admitted - int64(st.Running) - int64(st.Queued) -
		st.Completed - st.Degraded - st.Cancelled - st.Failed
}

// Supervisor is the session pool. Create with New, submit with Submit,
// stop with Drain. Safe for concurrent use.
type Supervisor struct {
	lim Limits

	mu       sync.Mutex
	nextID   int64
	running  map[int64]*Session
	queue    []*Session
	sessions []*Session // every admitted session, admission order
	workers  int
	draining bool
	settled  chan struct{} // closed+renewed on every settle; drain waits on it
	stats    Stats

	wg sync.WaitGroup
}

// New creates a supervisor with the given limits.
func New(lim Limits) *Supervisor {
	return &Supervisor{
		lim:     lim.withDefaults(),
		running: map[int64]*Session{},
		settled: make(chan struct{}),
	}
}

// Submit admits, queues, or rejects job — always fast, never blocking
// on capacity. The returned Session settles exactly once; rejected
// submissions return a nil session and ErrOverloaded or ErrDraining.
func (sv *Supervisor) Submit(job Job) (*Session, error) {
	cores := job.Cores
	if cores < 1 {
		cores = 1
	}
	sv.mu.Lock()
	sv.stats.Submitted++
	if sv.draining {
		sv.stats.Rejected++
		sv.mu.Unlock()
		return nil, fmt.Errorf("%w (job %q)", ErrDraining, job.Name)
	}
	canRun := len(sv.running) < sv.lim.MaxSessions && sv.workersFit(cores)
	if !canRun && len(sv.queue) >= sv.lim.QueueDepth {
		sv.stats.Rejected++
		nRun, nQueued := len(sv.running), len(sv.queue)
		sv.mu.Unlock()
		return nil, fmt.Errorf("%w (job %q: %d running, %d queued)",
			ErrOverloaded, job.Name, nRun, nQueued)
	}

	sv.nextID++
	ctx := context.Background()
	var cancel context.CancelFunc
	if sv.lim.SessionDeadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, sv.lim.SessionDeadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	s := &Session{
		ID: sv.nextID, Name: job.Name,
		sup: sv, job: job, cores: cores,
		runCtx: ctx, cancel: cancel, done: make(chan struct{}),
	}
	sv.stats.Admitted++
	sv.sessions = append(sv.sessions, s)
	s.state = StateQueued // pre-publication; startLocked promotes under s.mu
	if canRun {
		sv.startLocked(s, ctx)
	} else {
		sv.queue = append(sv.queue, s)
		// A queued session cancelled before promotion settles from the
		// watcher below; promotion stops it first.
		go s.watchQueued(ctx)
	}
	sv.mu.Unlock()
	return s, nil
}

// workersFit reports whether a job needing n workers fits under
// MaxWorkers right now. A job wider than the whole bound fits only
// when nothing else runs. Caller holds mu.
func (sv *Supervisor) workersFit(n int) bool {
	if sv.lim.MaxWorkers <= 0 {
		return true
	}
	if n > sv.lim.MaxWorkers {
		return sv.workers == 0
	}
	return sv.workers+n <= sv.lim.MaxWorkers
}

// startLocked promotes s to running. Caller holds mu.
func (sv *Supervisor) startLocked(s *Session, ctx context.Context) {
	s.mu.Lock()
	s.state = StateRunning
	s.started = time.Now()
	s.mu.Unlock()
	sv.running[s.ID] = s
	sv.workers += s.cores
	sv.wg.Add(1)
	go sv.runSession(s, ctx)
}

// watchQueued settles a queued session whose context fires before
// promotion (caller cancel, deadline, or drain). Promotion closes the
// race by re-checking state under the session lock.
func (s *Session) watchQueued(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-s.done:
		return
	}
	sv := s.sup
	sv.mu.Lock()
	// Re-check: promotion may have won; then the running path owns the
	// settle and this watcher stands down (s.done closes eventually).
	s.mu.Lock()
	queued := s.state == StateQueued
	s.mu.Unlock()
	if !queued {
		sv.mu.Unlock()
		return
	}
	for i, q := range sv.queue {
		if q == s {
			sv.queue = append(sv.queue[:i], sv.queue[i+1:]...)
			break
		}
	}
	sv.settleLocked(s, OutcomeCancelled, nil, nil)
	sv.mu.Unlock()
}

// runSession is the session goroutine: build the app, run it under the
// session context, classify the outcome. Panics — from the factory or
// anywhere in the run — are contained into OutcomeFailed.
func (sv *Supervisor) runSession(s *Session, ctx context.Context) {
	defer sv.wg.Done()
	var (
		rep *hinch.Report
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: session %q panicked: %v", s.Name, r)
			}
		}()
		var app *hinch.App
		app, err = s.job.New()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.app = app
		s.mu.Unlock()
		rep, err = app.RunContext(ctx, s.job.Iterations)
	}()

	outcome := OutcomeCompleted
	switch {
	case err != nil:
		outcome = OutcomeFailed
		rep = nil
	case rep.Outcome == hinch.OutcomeCancelled:
		outcome = OutcomeCancelled
	case rep.Degradations > 0:
		outcome = OutcomeDegraded
	}

	sv.mu.Lock()
	delete(sv.running, s.ID)
	sv.workers -= s.cores
	sv.settleLocked(s, outcome, rep, err)
	sv.promoteLocked()
	sv.mu.Unlock()
}

// settleLocked finalises a session's outcome and accounting, closes its
// done channel, and pulses the settle signal Drain waits on. Caller
// holds sv.mu; must be called exactly once per session.
func (sv *Supervisor) settleLocked(s *Session, outcome Outcome, rep *hinch.Report, err error) {
	s.mu.Lock()
	s.state = StateDone
	s.outcome = outcome
	s.rep = rep
	s.err = err
	s.finished = time.Now()
	s.mu.Unlock()
	switch outcome {
	case OutcomeCompleted:
		sv.stats.Completed++
	case OutcomeDegraded:
		sv.stats.Degraded++
	case OutcomeCancelled:
		sv.stats.Cancelled++
	case OutcomeFailed:
		sv.stats.Failed++
	}
	s.cancel() // release the context's timer/goroutine
	close(s.done)
	close(sv.settled)
	sv.settled = make(chan struct{})
}

// promoteLocked starts queued sessions while the limits allow. Caller
// holds mu.
func (sv *Supervisor) promoteLocked() {
	for len(sv.queue) > 0 {
		s := sv.queue[0]
		if len(sv.running) >= sv.lim.MaxSessions || !sv.workersFit(s.cores) {
			return
		}
		sv.queue = sv.queue[1:]
		// The queued-cancel watcher may be racing promotion; state is
		// the arbiter, re-checked under the session lock.
		s.mu.Lock()
		if s.state != StateQueued {
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		// The session keeps its admission-time context: a deadline set
		// at Submit keeps ticking through the queue wait, and a context
		// that fired while queued cancels the run right after start.
		sv.startLocked(s, s.runCtx)
	}
}

// Stats returns the current accounting under one lock acquisition, so
// the closed-sum invariants hold within the returned value.
func (sv *Supervisor) Stats() Stats {
	sv.mu.Lock()
	st := sv.stats
	st.Running = len(sv.running)
	st.Queued = len(sv.queue)
	st.WorkersInUse = sv.workers
	st.Draining = sv.draining
	sv.mu.Unlock()
	return st
}

// Sessions returns every admitted session's status, admission order.
func (sv *Supervisor) Sessions() []Status {
	sv.mu.Lock()
	list := append([]*Session(nil), sv.sessions...)
	sv.mu.Unlock()
	now := time.Now()
	out := make([]Status, len(list))
	for i, s := range list {
		out[i] = s.status(now)
	}
	return out
}

// StalledSessions counts running sessions whose progress watchdog is
// currently firing — the supervisor-level health signal.
func (sv *Supervisor) StalledSessions() int {
	sv.mu.Lock()
	run := make([]*Session, 0, len(sv.running))
	for _, s := range sv.running {
		run = append(run, s)
	}
	sv.mu.Unlock()
	n := 0
	for _, s := range run {
		s.mu.Lock()
		app := s.app
		s.mu.Unlock()
		if app != nil && app.Snapshot().Stalled {
			n++
		}
	}
	return n
}

// Drain stops admission and winds the pool down: queued sessions are
// cancelled immediately (they never ran), running sessions get
// Limits.DrainGrace to finish, stragglers are cancelled, and Drain
// returns once every admitted session has settled. The final Stats has
// Running == Queued == 0 and Residual() == 0. Idempotent-ish: a second
// concurrent Drain also waits for the pool to empty.
func (sv *Supervisor) Drain() Stats {
	sv.mu.Lock()
	sv.draining = true
	queued := append([]*Session(nil), sv.queue...)
	sv.mu.Unlock()
	// Fire the queued sessions' contexts; their watchers settle them
	// (or promotion already won and the run path will see the cancel).
	for _, s := range queued {
		s.cancel()
	}

	deadline := time.Now().Add(sv.lim.DrainGrace)
	for {
		sv.mu.Lock()
		empty := len(sv.running) == 0 && len(sv.queue) == 0
		settled := sv.settled
		sv.mu.Unlock()
		if empty {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		select {
		case <-settled:
		case <-time.After(time.Until(deadline) + time.Millisecond):
		}
	}

	// Grace expired (or pool already empty): cancel every straggler.
	sv.mu.Lock()
	stragglers := make([]*Session, 0, len(sv.running)+len(sv.queue))
	for _, s := range sv.running {
		stragglers = append(stragglers, s)
	}
	stragglers = append(stragglers, sv.queue...)
	sv.mu.Unlock()
	for _, s := range stragglers {
		s.cancel()
	}
	for _, s := range stragglers {
		<-s.done
	}
	sv.wg.Wait()
	return sv.Stats()
}
