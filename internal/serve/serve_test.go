package serve

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"xspcl/internal/conformance"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// leakCheck fails the test when the goroutine count has not returned
// to its baseline after a settle window — a drained supervisor must
// leave nothing behind.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after settle", before, now)
	}
}

// gate blocks its first Run until released — a session that occupies
// its slot for exactly as long as the test wants.
type gate struct{ ch chan struct{} }

func (c *gate) Init(*hinch.InitContext) error { return nil }
func (c *gate) Run(rc *hinch.RunContext) error {
	if rc.Iteration() == 0 {
		<-c.ch
	}
	rc.Charge(10)
	return nil
}

// sleeper sleeps a moment every iteration — long-running but promptly
// cancellable at every dispatch boundary.
type sleeper struct{}

func (c *sleeper) Init(*hinch.InitContext) error { return nil }
func (c *sleeper) Run(rc *hinch.RunContext) error {
	time.Sleep(2 * time.Millisecond)
	rc.Charge(10)
	return nil
}

// soloProg is a single-component program (no streams): one job per
// iteration of the named class.
func soloProg(class string) *graph.Program {
	b := graph.NewBuilder("solo")
	b.Body(b.Component("c", class, nil, nil))
	return b.MustProgram()
}

// gateJob submits a real-backend session that blocks until release is
// closed.
func gateJob(name string, release chan struct{}) Job {
	return Job{
		Name: name, Cores: 1, Iterations: 3,
		New: func() (*hinch.App, error) {
			r := hinch.NewRegistry()
			r.Register("gate", hinch.ClassSpec{New: func() hinch.Component { return &gate{ch: release} }})
			return hinch.NewApp(soloProg("gate"), r, hinch.Config{Backend: hinch.BackendReal, Cores: 1, PipelineDepth: 1})
		},
	}
}

// sleeperJob submits a real-backend session that runs long but cancels
// promptly.
func sleeperJob(name string, iters int) Job {
	return Job{
		Name: name, Cores: 1, Iterations: iters,
		New: func() (*hinch.App, error) {
			r := hinch.NewRegistry()
			r.Register("sleeper", hinch.ClassSpec{New: func() hinch.Component { return &sleeper{} }})
			return hinch.NewApp(soloProg("sleeper"), r, hinch.Config{Backend: hinch.BackendReal, Cores: 1, PipelineDepth: 1})
		},
	}
}

// confJob submits a deterministic sim-backend conformance session.
func confJob(t *testing.T, seed uint64) (Job, int) {
	t.Helper()
	g, err := conformance.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	iters := g.Iters
	if g.Frames > 0 {
		iters = g.Frames + 40
	}
	return Job{
		Name: fmt.Sprintf("conf-%d", seed), Cores: 3, Iterations: iters,
		New: func() (*hinch.App, error) {
			return hinch.NewApp(g.Prog, conformance.Registry(), g.Config(hinch.BackendSim, 3))
		},
	}, g.ExpectedIterations()
}

func assertStats(t *testing.T, sv *Supervisor) Stats {
	t.Helper()
	st := sv.Stats()
	if st.Submitted != st.Admitted+st.Rejected {
		t.Fatalf("submission accounting leaks: %+v", st)
	}
	if r := st.Residual(); r != 0 {
		t.Fatalf("admitted-session accounting leaks (residual %d): %+v", r, st)
	}
	return st
}

func TestSubmitRunsToCompletion(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 2})
	job, want := confJob(t, 7)
	s, err := sv.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	outcome, rep, err := s.Wait()
	if err != nil || outcome != OutcomeCompleted {
		t.Fatalf("outcome=%s err=%v", outcome, err)
	}
	if rep.Iterations != want {
		t.Fatalf("session processed %d iterations, want %d", rep.Iterations, want)
	}
	st := assertStats(t, sv)
	if st.Completed != 1 || st.Submitted != 1 {
		t.Fatalf("stats: %+v", st)
	}
	sv.Drain()
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 1, QueueDepth: 0})
	release := make(chan struct{})
	a, err := sv.Submit(gateJob("holder", release))
	if err != nil {
		t.Fatal(err)
	}
	// The slot is held and there is no queue: the second submission
	// must be rejected fast with the typed error.
	begin := time.Now()
	_, err = sv.Submit(sleeperJob("reject-me", 10))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if time.Since(begin) > time.Second {
		t.Fatalf("rejection blocked for %v", time.Since(begin))
	}
	close(release)
	if outcome, _, _ := a.Wait(); outcome != OutcomeCompleted {
		t.Fatalf("holder outcome %s", outcome)
	}
	st := assertStats(t, sv)
	if st.Rejected != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	sv.Drain()
}

func TestWorkerBudgetGatesAdmission(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 8, MaxWorkers: 2, QueueDepth: 0})
	release := make(chan struct{})
	hold, err := sv.Submit(gateJob("w1", release)) // 1 worker
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 > MaxWorkers: rejected on the worker budget even though
	// session slots remain.
	wide := sleeperJob("wide", 10)
	wide.Cores = 2
	if _, err := sv.Submit(wide); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(release)
	hold.Wait()
	// With the pool empty, a job wider than the whole budget is still
	// admitted (it runs alone) — otherwise it could never run.
	huge := sleeperJob("huge", 1)
	huge.Cores = 5
	s, err := sv.Submit(huge)
	if err != nil {
		t.Fatal(err)
	}
	if outcome, _, _ := s.Wait(); outcome != OutcomeCompleted {
		t.Fatalf("huge outcome %s", outcome)
	}
	assertStats(t, sv)
	sv.Drain()
}

func TestQueueBackpressureAndPromotion(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 1, QueueDepth: 2})
	release := make(chan struct{})
	a, err := sv.Submit(gateJob("holder", release))
	if err != nil {
		t.Fatal(err)
	}
	jb, wantB := confJob(t, 3)
	jc, wantC := confJob(t, 9)
	b, err := sv.Submit(jb)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sv.Submit(jc)
	if err != nil {
		t.Fatal(err)
	}
	if st := assertStats(t, sv); st.Queued != 2 || st.Running != 1 {
		t.Fatalf("stats before overflow: %+v", st)
	}
	if _, err := sv.Submit(sleeperJob("overflow", 5)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow err = %v, want ErrOverloaded", err)
	}

	close(release)
	if outcome, _, _ := a.Wait(); outcome != OutcomeCompleted {
		t.Fatalf("holder outcome %s", outcome)
	}
	// FIFO promotion: both queued sessions run to completion.
	ob, repB, _ := b.Wait()
	oc, repC, _ := c.Wait()
	if ob != OutcomeCompleted || oc != OutcomeCompleted {
		t.Fatalf("queued outcomes %s %s", ob, oc)
	}
	if repB.Iterations != wantB || repC.Iterations != wantC {
		t.Fatalf("queued sessions processed %d/%d, want %d/%d",
			repB.Iterations, repC.Iterations, wantB, wantC)
	}
	st := assertStats(t, sv)
	if st.Completed != 3 || st.Rejected != 1 || st.Queued != 0 {
		t.Fatalf("stats: %+v", st)
	}
	sv.Drain()
}

func TestSessionDeadlineCancels(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 2, SessionDeadline: 80 * time.Millisecond})
	s, err := sv.Submit(sleeperJob("slow", 100000))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	outcome, rep, err := s.Wait()
	if err != nil || outcome != OutcomeCancelled {
		t.Fatalf("outcome=%s err=%v", outcome, err)
	}
	if rep == nil || rep.Outcome != hinch.OutcomeCancelled {
		t.Fatalf("deadline session report: %+v", rep)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to bite", elapsed)
	}
	st := assertStats(t, sv)
	if st.Cancelled != 1 {
		t.Fatalf("stats: %+v", st)
	}
	sv.Drain()
}

func TestPanicAndErrorIsolation(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 2})
	p, err := sv.Submit(Job{Name: "boom", Iterations: 1, New: func() (*hinch.App, error) {
		panic("factory exploded")
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := sv.Submit(Job{Name: "bad", Iterations: 1, New: func() (*hinch.App, error) {
		return nil, errors.New("no such program")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if outcome, _, werr := p.Wait(); outcome != OutcomeFailed || werr == nil {
		t.Fatalf("panic session outcome=%s err=%v", outcome, werr)
	}
	if outcome, _, werr := f.Wait(); outcome != OutcomeFailed || werr == nil {
		t.Fatalf("error session outcome=%s err=%v", outcome, werr)
	}
	// The supervisor survives both and keeps serving.
	job, _ := confJob(t, 13)
	s, err := sv.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if outcome, _, _ := s.Wait(); outcome != OutcomeCompleted {
		t.Fatalf("post-panic session outcome %s", outcome)
	}
	st := assertStats(t, sv)
	if st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	sv.Drain()
}

func TestQueuedSessionCancel(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 1, QueueDepth: 1})
	release := make(chan struct{})
	a, err := sv.Submit(gateJob("holder", release))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sv.Submit(sleeperJob("queued", 10))
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel()
	if outcome, rep, _ := q.Wait(); outcome != OutcomeCancelled || rep != nil {
		t.Fatalf("queued cancel: outcome=%s rep=%v", outcome, rep)
	}
	// Its queue slot freed up immediately.
	if st := assertStats(t, sv); st.Queued != 0 || st.Cancelled != 1 {
		t.Fatalf("stats after queued cancel: %+v", st)
	}
	close(release)
	a.Wait()
	assertStats(t, sv)
	sv.Drain()
}

func TestDrainCancelsStragglersAndRejects(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 2, QueueDepth: 2, DrainGrace: 50 * time.Millisecond})
	s, err := sv.Submit(sleeperJob("straggler", 100000))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sv.Submit(sleeperJob("alsoslow", 100000))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	st := sv.Drain()
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("drain left sessions live: %+v", st)
	}
	if r := st.Residual(); r != 0 {
		t.Fatalf("drain residual %d: %+v", r, st)
	}
	if o, _, _ := s.Wait(); o != OutcomeCancelled {
		t.Fatalf("straggler outcome %s", o)
	}
	if o, _, _ := q.Wait(); o != OutcomeCancelled {
		t.Fatalf("second straggler outcome %s", o)
	}
	if _, err := sv.Submit(sleeperJob("late", 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	final := assertStats(t, sv)
	if !final.Draining || final.Cancelled != 2 || final.Rejected != 1 {
		t.Fatalf("final stats: %+v", final)
	}
}

func TestSessionsStatusListing(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 1, QueueDepth: 1})
	release := make(chan struct{})
	a, _ := sv.Submit(gateJob("runner", release))
	b, _ := sv.Submit(sleeperJob("waiter", 5))
	list := sv.Sessions()
	if len(list) != 2 {
		t.Fatalf("%d sessions listed, want 2", len(list))
	}
	if list[0].Name != "runner" || list[0].State != StateRunning {
		t.Fatalf("first status: %+v", list[0])
	}
	if list[1].Name != "waiter" || list[1].State != StateQueued {
		t.Fatalf("second status: %+v", list[1])
	}
	close(release)
	a.Wait()
	b.Wait()
	for _, st := range sv.Sessions() {
		if st.State != StateDone || st.Outcome != OutcomeCompleted {
			t.Fatalf("settled status: %+v", st)
		}
	}
	sv.Drain()
}

// lateGate runs two iterations, then announces itself and blocks its
// third until released.
type lateGate struct{ reached, release chan struct{} }

func (c *lateGate) Init(*hinch.InitContext) error { return nil }
func (c *lateGate) Run(rc *hinch.RunContext) error {
	if rc.Iteration() == 2 {
		close(c.reached)
		<-c.release
	}
	return nil
}

// TestRunningSessionReportsProgress: the status of a running session
// carries its live iteration and job counts, whether or not the app was
// built with Config.Telemetry.
func TestRunningSessionReportsProgress(t *testing.T) {
	defer leakCheck(t)()
	sv := New(Limits{MaxSessions: 1})
	g := &lateGate{reached: make(chan struct{}), release: make(chan struct{})}
	s, err := sv.Submit(Job{
		Name: "runner", Cores: 1, Iterations: 5,
		New: func() (*hinch.App, error) {
			r := hinch.NewRegistry()
			r.Register("gate", hinch.ClassSpec{New: func() hinch.Component { return g }})
			return hinch.NewApp(soloProg("gate"), r, hinch.Config{Backend: hinch.BackendReal, Cores: 1, PipelineDepth: 1})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	// PipelineDepth 1: iteration 2 launched only once 0 and 1 retired.
	st := sv.Sessions()[0]
	if st.State != StateRunning || st.Iterations != 2 || st.Jobs != 3 {
		t.Errorf("mid-run status: state=%v iterations=%d jobs=%d, want running/2/3", st.State, st.Iterations, st.Jobs)
	}
	close(g.release)
	if out, rep, err := s.Wait(); err != nil || out != OutcomeCompleted || rep.Iterations != 5 {
		t.Fatalf("outcome %v, report %v, err %v", out, rep, err)
	}
	sv.Drain()
}
