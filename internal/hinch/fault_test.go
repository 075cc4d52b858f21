package hinch

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xspcl/internal/graph"
)

// panicker forwards its payload but panics at one configured iteration
// — the genuine-panic case the containment path must convert into an
// error without poisoning the worker's reused RunContext.
type panicker struct{ at int }

func (c *panicker) Init(ic *InitContext) error {
	var err error
	c.at, err = ic.IntParam("at", -1)
	return err
}

func (c *panicker) Run(rc *RunContext) error {
	rc.Charge(10)
	if rc.Iteration() == c.at {
		panic(fmt.Sprintf("deliberate panic at %d", c.at))
	}
	v, _ := rc.In("in").(int)
	rc.SetOut("out", v+1000)
	return nil
}

// firstAttemptInjector faults attempt 0 of matching tasks on every
// iteration, so a retry policy succeeds on the re-attempt — the
// reset-on-success case.
type firstAttemptInjector struct {
	task string
	mu   sync.Mutex
	hits int
}

func (f *firstAttemptInjector) Inject(task string, iter, attempt int) Fault {
	if task != f.task || attempt != 0 {
		return Fault{}
	}
	f.mu.Lock()
	f.hits++
	f.mu.Unlock()
	return Fault{Kind: FaultError}
}

func faultRegistry() *Registry {
	r := testRegistry()
	r.Register("panicker", ClassSpec{New: func() Component { return &panicker{} }, In: []string{"in"}, Out: []string{"out"}})
	return r
}

// degradeProg builds src → manager "deg" { primary (on): one component
// of the given class/params; backup (off): adder add=2000 } → sink,
// with fault bindings flipping primary→backup. Primary components add
// 1000 (adder/panicker), so the sink value tells which configuration
// processed an iteration.
func degradeProg(class string, params graph.Params) *graph.Program {
	b := graph.NewBuilder("degrade")
	b.Stream("a").Stream("b")
	b.Queue("fq")
	if params == nil {
		params = graph.Params{}
	}
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Manager("deg", "fq", []graph.EventBinding{
			graph.On(graph.FaultEvent, graph.ActionDisable, "primary"),
			graph.On(graph.FaultEvent, graph.ActionEnable, "backup"),
		},
			b.Option("primary", true,
				b.Component("p1", class, graph.Ports{"in": "a", "out": "b"}, params)),
			b.Option("backup", false,
				b.Component("b1", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "2000"}))),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

// checkDegraded asserts the monotone primary→backup value pattern:
// iterations [0, from) are primary (+1000), a window [from, t) of
// holes (when holed), and everything from the flip on is backup
// (+2000). It returns the hole count and the flip point.
func checkDegraded(t *testing.T, vals []int, iters, from int, holed bool) (holes, flip int) {
	t.Helper()
	got := map[int]int{} // iteration -> observed value
	for _, v := range vals {
		switch {
		case v >= 2000:
			got[v-2000] = 2000
		case v >= 1000:
			got[v-1000] = 1000
		default:
			t.Fatalf("sink value %d matches neither configuration", v)
		}
	}
	flip = -1
	for i := 0; i < iters; i++ {
		if got[i] == 2000 {
			flip = i
			break
		}
	}
	if flip < 0 {
		t.Fatalf("run never degraded to backup: %v", vals)
	}
	for i := 0; i < iters; i++ {
		want := 1000
		switch {
		case i >= flip:
			want = 2000
		case i >= from && holed:
			want = 0 // hole
		}
		if got[i] != want {
			t.Fatalf("iteration %d: observed %+d, want %+d (flip %d, from %d): %v", i, got[i], want, flip, from, vals)
		}
		if want == 0 {
			holes++
		}
	}
	return holes, flip
}

// TestHandleRunErrorAggregates: handleRunError must keep every
// non-EOS error it sees, not just the first — a parallel run can fail
// on several workers before the stop propagates.
func TestHandleRunErrorAggregates(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(app)
	e.limit = 5
	e.handleRunError(job{iter: 3, task: e.app.plan.Tasks[1]}, fmt.Errorf("first failure"))
	e.handleRunError(job{iter: 4, task: e.app.plan.Tasks[2]}, fmt.Errorf("second failure"))
	if e.err == nil {
		t.Fatal("no error recorded")
	}
	msg := e.err.Error()
	for _, want := range []string{"first failure", "second failure", "@3", "@4"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("aggregated error %q missing %q", msg, want)
		}
	}
	e.handleRunError(job{iter: 5, task: e.app.plan.Tasks[0]}, EOS)
	if strings.Contains(e.err.Error(), "EOS") {
		t.Fatalf("EOS leaked into the aggregated error: %q", e.err)
	}
}

// TestRetryExhaustionDegrades: injected errors from iteration `from`
// on exhaust p1's retry budget; each faulted iteration holes, a fault
// event flips the manager to the backup option, and the counters obey
// Faults = holes·(R+1), Retries = holes·R, Degradations = holes.
func TestRetryExhaustionDegrades(t *testing.T) {
	const iters, from, retries = 12, 3, 2
	for _, backend := range []Backend{BackendSim, BackendReal} {
		prog := degradeProg("adder", graph.Params{
			"add":              "1000",
			graph.OnErrorParam: fmt.Sprintf("retry:%d,base=10us", retries),
		})
		app, err := NewApp(prog, testRegistry(), Config{
			Backend: backend, Cores: 2, PipelineDepth: 3,
			Faults: &SeededFaults{Task: "p1", From: from, Kind: FaultError},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(iters)
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		holes, _ := checkDegraded(t, app.Component("snk").(*intSink).values(), iters, from, true)
		if holes < 1 {
			t.Fatalf("backend %d: no holes", backend)
		}
		if rep.Iterations != iters-holes {
			t.Fatalf("backend %d: iterations = %d, want %d", backend, rep.Iterations, iters-holes)
		}
		if rep.Reconfigs != 1 {
			t.Fatalf("backend %d: reconfigs = %d, want 1", backend, rep.Reconfigs)
		}
		wf, wr, wd := int64(holes)*(retries+1), int64(holes)*retries, int64(holes)
		if rep.Faults != wf || rep.Retries != wr || rep.Degradations != wd {
			t.Fatalf("backend %d: faults=%d retries=%d degradations=%d, want %d/%d/%d",
				backend, rep.Faults, rep.Retries, rep.Degradations, wf, wr, wd)
		}
	}
}

// TestRetryResetOnSuccess: a component whose first attempt fails every
// iteration but whose re-attempt succeeds never exhausts a retry:2
// budget — the attempt counter resets per iteration, no fault event is
// emitted, and every iteration produces its output.
func TestRetryResetOnSuccess(t *testing.T) {
	const iters = 10
	for _, backend := range []Backend{BackendSim, BackendReal} {
		b := graph.NewBuilder("flaky")
		b.Stream("a").Stream("b")
		b.Body(
			b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
			b.Component("flaky", "adder", graph.Ports{"in": "a", "out": "b"},
				graph.Params{"add": "1000", graph.OnErrorParam: "retry:2,base=10us"}),
			b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
		)
		inj := &firstAttemptInjector{task: "flaky"}
		app, err := NewApp(b.MustProgram(), testRegistry(), Config{Backend: backend, Cores: 2, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(iters)
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		vals := app.Component("snk").(*intSink).values()
		if len(vals) != iters {
			t.Fatalf("backend %d: sink saw %d values, want %d", backend, len(vals), iters)
		}
		for i, v := range vals {
			if v != i+1000 {
				t.Fatalf("backend %d: value %d = %d, want %d", backend, i, v, i+1000)
			}
		}
		if rep.Faults != iters || rep.Retries != iters || rep.Degradations != 0 {
			t.Fatalf("backend %d: faults=%d retries=%d degradations=%d, want %d/%d/0",
				backend, rep.Faults, rep.Retries, rep.Degradations, iters, iters)
		}
		if inj.hits != iters {
			t.Fatalf("backend %d: injector consulted %d times for attempt 0, want %d", backend, inj.hits, iters)
		}
	}
}

// TestSimBackoffDeterministic: retry backoff on the sim backend is
// charged as virtual cycles, so two runs with the same injection
// schedule report identical virtual completion times.
func TestSimBackoffDeterministic(t *testing.T) {
	run := func() *Report {
		b := graph.NewBuilder("flaky")
		b.Stream("a").Stream("b")
		b.Body(
			b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
			b.Component("flaky", "adder", graph.Ports{"in": "a", "out": "b"},
				graph.Params{"add": "1000", graph.OnErrorParam: "retry:2,backoff=2x,base=3us"}),
			b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
		)
		app, err := NewApp(b.MustProgram(), testRegistry(), Config{
			Backend: BackendSim, Cores: 2,
			Faults: &firstAttemptInjector{task: "flaky"},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.Retries != r2.Retries {
		t.Fatalf("sim backoff not deterministic: %d/%d vs %d/%d cycles/retries", r1.Cycles, r1.Retries, r2.Cycles, r2.Retries)
	}
	// The backoff must actually cost virtual time: compare against the
	// same program without injection.
	b := graph.NewBuilder("flaky")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("flaky", "adder", graph.Ports{"in": "a", "out": "b"},
			graph.Params{"add": "1000", graph.OnErrorParam: "retry:2,backoff=2x,base=3us"}),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	app, err := NewApp(b.MustProgram(), testRegistry(), Config{Backend: BackendSim, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := app.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles <= clean.Cycles {
		t.Fatalf("backoff charged no virtual time: faulted %d cycles <= clean %d", r1.Cycles, clean.Cycles)
	}
}

// TestPanicContainment: a genuine component panic under a
// skip-iteration policy is contained — the run finishes without error,
// the panicking iteration holes, the manager degrades to the backup
// option, and (on the real backend with one worker) later iterations
// execute correctly through the same reused RunContext.
func TestPanicContainment(t *testing.T) {
	const iters, at = 10, 4
	for _, backend := range []Backend{BackendSim, BackendReal} {
		prog := degradeProg("panicker", graph.Params{
			"at":               fmt.Sprint(at),
			graph.OnErrorParam: "skip-iteration",
		})
		app, err := NewApp(prog, faultRegistry(), Config{Backend: backend, Cores: 1, PipelineDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(iters)
		if err != nil {
			t.Fatalf("backend %d: panic escaped containment: %v", backend, err)
		}
		// Exactly one hole (the panicking iteration); iterations before
		// the flip otherwise ran primary — including the ones between
		// the panic and the flip, since only iteration `at` fails.
		got := map[int]int{}
		for _, v := range app.Component("snk").(*intSink).values() {
			if v >= 2000 {
				got[v-2000] = 2000
			} else {
				got[v-1000] = 1000
			}
		}
		flip := iters
		for i := 0; i < iters; i++ {
			if got[i] == 2000 {
				flip = i
				break
			}
		}
		if flip <= at {
			t.Fatalf("backend %d: flip %d not after panic at %d", backend, flip, at)
		}
		for i := 0; i < iters; i++ {
			want := 1000
			switch {
			case i >= flip:
				want = 2000
			case i == at:
				want = 0 // hole
			}
			if got[i] != want {
				t.Fatalf("backend %d: iteration %d observed %+d, want %+d (flip %d)", backend, i, got[i], want, flip)
			}
		}
		if rep.Faults != 1 || rep.Retries != 0 || rep.Degradations != 1 || rep.Reconfigs != 1 {
			t.Fatalf("backend %d: faults=%d retries=%d degradations=%d reconfigs=%d, want 1/0/1/1",
				backend, rep.Faults, rep.Retries, rep.Degradations, rep.Reconfigs)
		}
	}
}

// TestSimDeadlineWatchdog: on the sim backend a job whose virtual cost
// exceeds its declared deadline trips the watchdog — the outputs stand
// (no holes), but the manager degrades to the backup option.
func TestSimDeadlineWatchdog(t *testing.T) {
	const iters = 10
	// doubler charges `cost` virtual cycles; 5000 cycles > the 1µs
	// (=1000 cycle) deadline, so every primary iteration overruns.
	prog := degradeProg("double", graph.Params{
		"cost":              "5000",
		graph.DeadlineParam: "1us",
	})
	app, err := NewApp(prog, testRegistry(), Config{Backend: BackendSim, Cores: 2, PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if flip := checkDeadlineFlip(t, app, rep, iters); rep.Degradations != int64(flip) {
		t.Fatalf("degradations = %d, want %d", rep.Degradations, flip)
	}
}

// TestRealDeadlineWatchdog: the same rule on the real backend, in wall
// time — a 5ms injected latency spike overruns p1's 1ms deadline from
// iteration 2 on, and the overrun degrades without holing anything.
func TestRealDeadlineWatchdog(t *testing.T) {
	const iters = 10
	prog := degradeProg("double", graph.Params{graph.DeadlineParam: "1ms"})
	app, err := NewApp(prog, testRegistry(), Config{
		Backend: BackendReal, Cores: 2, PipelineDepth: 3,
		Faults: &SeededFaults{Task: "p1", Kind: FaultDelay, Delay: 5 * time.Millisecond, From: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if checkDeadlineFlip(t, app, rep, iters); rep.Degradations < 1 {
		t.Fatalf("degradations = %d, want >= 1", rep.Degradations)
	}
}

// checkDeadlineFlip asserts a deadline-degraded run of degradeProg
// ("double"): every iteration's output stands — primary (2i) up to the
// flip, backup (i+2000) from it on — with one reconfiguration and no
// fault. It returns the flip point.
func checkDeadlineFlip(t *testing.T, app *App, rep *Report, iters int) (flip int) {
	t.Helper()
	vals := app.Component("snk").(*intSink).values()
	if len(vals) != iters {
		t.Fatalf("sink saw %d values, want %d (deadline overruns must keep their outputs)", len(vals), iters)
	}
	flip = -1
	for i, v := range vals {
		if v == i+2000 {
			flip = i
			break
		}
		if v != 2*i {
			t.Fatalf("iteration %d: value %d, want %d (primary) or %d (backup)", i, v, 2*i, i+2000)
		}
	}
	if flip < 0 {
		t.Fatal("watchdog never degraded the run")
	}
	for i := flip; i < iters; i++ {
		if vals[i] != i+2000 {
			t.Fatalf("iteration %d (after flip %d): value %d, want %d", i, flip, vals[i], i+2000)
		}
	}
	if rep.Reconfigs != 1 || rep.Faults != 0 || rep.Iterations != iters {
		t.Fatalf("reconfigs=%d faults=%d iterations=%d, want 1/0/%d", rep.Reconfigs, rep.Faults, rep.Iterations, iters)
	}
	return flip
}

// TestParseFaultSpec pins the -inject-faults grammar: which specs parse,
// into what, and which are rejected.
func TestParseFaultSpec(t *testing.T) {
	ok := []struct {
		spec string
		want SeededFaults
	}{
		{"", SeededFaults{From: -1}},
		{"seed=7,task=jdec,rate=4,kind=delay,delay=3ms,from=8",
			SeededFaults{Seed: 7, Task: "jdec", Rate: 4, Kind: FaultDelay, Delay: 3 * time.Millisecond, From: 8}},
		{"kind=error", SeededFaults{Kind: FaultError, From: -1}},
		{"kind=panic,from=0", SeededFaults{Kind: FaultPanic, From: 0}},
		{"seed=1,,rate=2", SeededFaults{Seed: 1, Rate: 2, From: -1}}, // empty segments are skipped
		{",seed=1,", SeededFaults{Seed: 1, From: -1}},
		{"task=a=b", SeededFaults{Task: "a=b", From: -1}}, // only the first '=' splits
		{"task=", SeededFaults{From: -1}},
		{"delay=0", SeededFaults{From: -1}},
	}
	for _, c := range ok {
		got, err := ParseFaultSpec(c.spec)
		if err != nil {
			t.Errorf("ParseFaultSpec(%q): %v", c.spec, err)
		} else if *got != c.want {
			t.Errorf("ParseFaultSpec(%q) = %+v, want %+v", c.spec, *got, c.want)
		}
	}
	bad := []struct{ spec, frag string }{
		{"seed", "want key=value pairs"},
		{"seed=1,rate", "want key=value pairs"},
		{"bogus=1", `unknown key "bogus"`},
		{"=1", `unknown key ""`},
		{"Seed=1", `unknown key "Seed"`},
		{"seed=x", "bad seed"},
		{"seed=", "bad seed"},
		{"rate=0", "bad rate"},
		{"rate=-3", "bad rate"},
		{"rate=many", "bad rate"},
		{"kind=boom", "bad kind"},
		{"kind=", "bad kind"},
		{"delay=soon", "bad delay"},
		{"delay=-1ms", "bad delay"},
		{"from=-1", "bad from"},
		{"from=x", "bad from"},
		{"seed=1,from=x", "bad from"},
	}
	for _, c := range bad {
		got, err := ParseFaultSpec(c.spec)
		if err == nil {
			t.Errorf("ParseFaultSpec(%q) = %+v, want an error containing %q", c.spec, *got, c.frag)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseFaultSpec(%q) error %q, want fragment %q", c.spec, err, c.frag)
		}
	}
}
