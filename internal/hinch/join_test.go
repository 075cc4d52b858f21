package hinch

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xspcl/internal/graph"
)

// Tests for the plan's joins as the engine executes them: a sequence
// boundary that is plural on both sides is one counter per iteration,
// decremented by each feeder's completion, and the completion that
// zeroes it releases the entries. Every test runs on both backends;
// the real-backend runs yield at complete and enqueue to spread the
// feeders' completions over the workers. What they check is what the
// all-pairs edges guaranteed: an entry runs exactly once per iteration
// and only after every feeder — including when feeders and entries are
// no-ops (disabled option, EOS tail, cancellation, a holed iteration).

// joinBoard is the payload: one mark per slice per stage. Stage tasks
// write their own mark and read other stages' marks with plain loads and
// stores, so under -race a missing happens-before edge between a feeder
// and an entry is a reported race, not just a wrong count.
type joinBoard struct {
	iter  int
	marks [4][16]int
}

func (bd *joinBoard) count(stage int) int {
	n := 0
	for _, m := range bd.marks[stage] {
		n += m
	}
	return n
}

// joinSource emits a fresh board per iteration and keeps them all, so a
// test can look at what ran in an iteration the sink never saw.
type joinSource struct {
	frames int
	mu     sync.Mutex
	boards []*joinBoard
}

func (c *joinSource) Init(ic *InitContext) error {
	var err error
	c.frames, err = ic.IntParam("frames", 0)
	return err
}

func (c *joinSource) Run(rc *RunContext) error {
	if c.frames > 0 && rc.Iteration() >= c.frames {
		return EOS
	}
	bd := &joinBoard{iter: rc.Iteration()}
	c.mu.Lock()
	c.boards = append(c.boards, bd)
	c.mu.Unlock()
	rc.SetOut("out", bd)
	rc.Charge(10)
	return nil
}

func (c *joinSource) board(iter int) *joinBoard {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, bd := range c.boards {
		if bd.iter == iter {
			return bd
		}
	}
	return nil
}

// joinStage is one slice of one stage. It fails the run unless every
// stage in "after" is fully marked and every stage in "optional" is
// marked fully or not at all, then sets its own mark. Slice 0 forwards
// the board unless fwd=0 (parallel sibling groups share one forwarder).
// Stateless: Run reads Init-time fields only.
type joinStage struct {
	name            string
	stage, slice, n int
	after, optional []int
	fwd             bool
}

func stageList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Fields(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (c *joinStage) Init(ic *InitContext) error {
	var err error
	if c.stage, err = ic.RequireInt("stage"); err != nil {
		return err
	}
	if c.after, err = stageList(ic.StringParam("after", "")); err != nil {
		return err
	}
	if c.optional, err = stageList(ic.StringParam("optional", "")); err != nil {
		return err
	}
	c.fwd = ic.StringParam("fwd", "1") == "1"
	c.slice, c.n = ic.Slice(), ic.NSlices()
	c.name = fmt.Sprintf("stage %d slice %d", c.stage, c.slice)
	return nil
}

func (c *joinStage) Run(rc *RunContext) error {
	bd, ok := rc.In("in").(*joinBoard)
	if !ok {
		return fmt.Errorf("%s: payload %T", c.name, rc.In("in"))
	}
	for _, s := range c.after {
		if got := bd.count(s); got != c.n {
			return fmt.Errorf("%s@%d ran with %d of %d tasks of stage %d done", c.name, bd.iter, got, c.n, s)
		}
	}
	for _, s := range c.optional {
		if got := bd.count(s); got != 0 && got != c.n {
			return fmt.Errorf("%s@%d ran with %d of %d tasks of optional stage %d done", c.name, bd.iter, got, c.n, s)
		}
	}
	bd.marks[c.stage][c.slice]++
	if c.fwd && c.slice == 0 {
		rc.SetOut("out", bd)
	}
	rc.Charge(int64(20 + 7*c.slice)) // uneven, so sim completions spread out
	return nil
}

// joinSink records, per iteration it runs, the iteration number and how
// many marks each stage left.
type joinSink struct {
	mu  sync.Mutex
	got [][5]int
}

func (c *joinSink) Init(ic *InitContext) error { return nil }

func (c *joinSink) Run(rc *RunContext) error {
	bd, ok := rc.In("in").(*joinBoard)
	if !ok {
		return fmt.Errorf("joinSink: payload %T", rc.In("in"))
	}
	rec := [5]int{bd.iter}
	for s := range bd.marks {
		rec[s+1] = bd.count(s)
	}
	c.mu.Lock()
	c.got = append(c.got, rec)
	c.mu.Unlock()
	rc.Charge(10)
	return nil
}

func (c *joinSink) records() [][5]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][5]int(nil), c.got...)
}

func joinRegistry() *Registry {
	r := testRegistry()
	r.Register("jsrc", ClassSpec{New: func() Component { return &joinSource{} }, Out: []string{"out"}})
	r.Register("jstage", ClassSpec{New: func() Component { return &joinStage{} }, In: []string{"in"}, Out: []string{"out"}, Stateless: true})
	r.Register("jsink", ClassSpec{New: func() Component { return &joinSink{} }, In: []string{"in"}})
	return r
}

// joinGroup is an n-way slice group of one stage.
func joinGroup(b *graph.Builder, name string, n, stage int, in, out string, extra graph.Params) *graph.Node {
	params := graph.Params{"stage": fmt.Sprint(stage)}
	for k, v := range extra {
		params[k] = v
	}
	return b.Parallel(graph.ShapeSlice, n, b.Component(name, "jstage", graph.Ports{"in": in, "out": out}, params))
}

// twoGroupsProg is src -> 16 x first -> 16 x second -> sink: one join,
// 16 -> 16. The params go to the first and to the second group's
// component; frames > 0 makes the source end the stream itself.
func twoGroupsProg(frames int, first, second graph.Params) *graph.Program {
	b := graph.NewBuilder("twogroups")
	b.Stream("a").Stream("b").Stream("c")
	after := graph.Params{"after": "0"}
	for k, v := range second {
		after[k] = v
	}
	b.Body(
		b.Component("src", "jsrc", graph.Ports{"out": "a"}, graph.Params{"frames": fmt.Sprint(frames)}),
		joinGroup(b, "first", 16, 0, "a", "b", first),
		joinGroup(b, "second", 16, 1, "b", "c", after),
		b.Component("snk", "jsink", graph.Ports{"in": "c"}, nil),
	)
	return b.MustProgram()
}

// trioProg is the JPiP shape: a task-parallel trio of 8-way slice groups
// feeding one 8-way slice group — one join, 24 -> 8.
func trioProg() *graph.Program {
	b := graph.NewBuilder("trio")
	b.Stream("a").Stream("b").Stream("c")
	b.Body(
		b.Component("src", "jsrc", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeTask, 0,
			joinGroup(b, "y", 8, 0, "a", "b", nil),
			joinGroup(b, "u", 8, 1, "a", "b", graph.Params{"fwd": "0"}),
			joinGroup(b, "v", 8, 2, "a", "b", graph.Params{"fwd": "0"}),
		),
		joinGroup(b, "blend", 8, 3, "b", "c", graph.Params{"after": "0 1 2"}),
		b.Component("snk", "jsink", graph.Ports{"in": "c"}, nil),
	)
	return b.MustProgram()
}

// joinHooks is eosRaceHooks (seeded steal order, a shared counter)
// yielding at the two boundaries a join sits between: before a
// completion releases anything, and before released jobs become visible.
type joinHooks struct{ eosRaceHooks }

func (h *joinHooks) Yield(p YieldPoint) {
	if p != YieldComplete && p != YieldEnqueue {
		return
	}
	if (h.ctr.Add(1)*0x9E3779B97F4A7C15+h.seed)>>61 < 3 {
		runtime.Gosched()
	}
}

// joinConfigs is the sim backend plus the real backend under a few
// hook seeds.
func joinConfigs(depth int) []Config {
	cfgs := []Config{{Backend: BackendSim, Cores: 4, PipelineDepth: depth}}
	for seed := uint64(0); seed < 4; seed++ {
		cfgs = append(cfgs, Config{Backend: BackendReal, Cores: 8, PipelineDepth: depth, Hooks: &joinHooks{eosRaceHooks{seed: seed}}})
	}
	return cfgs
}

func newJoinApp(t *testing.T, prog *graph.Program, cfg Config, wantJoins int) *App {
	t.Helper()
	app, err := NewApp(prog, joinRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.plan.Joins) != wantJoins {
		t.Fatalf("plan has %d joins, want %d", len(app.plan.Joins), wantJoins)
	}
	return app
}

// checkSinkPrefix asserts the sink saw iterations 0..n-1 in order, each
// with the given per-stage mark counts (-1: either 0 or width).
func checkSinkPrefix(t *testing.T, recs [][5]int, n, width int, stages [4]int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("sink saw %d iterations, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec[0] != i {
			t.Fatalf("sink record %d is iteration %d", i, rec[0])
		}
		for s, want := range stages {
			got := rec[s+1]
			if want == -1 && (got == 0 || got == width) {
				continue
			}
			if got != want {
				t.Fatalf("iteration %d: stage %d left %d marks, want %d", i, s, got, want)
			}
		}
	}
}

func TestJoinFiresOncePerIteration(t *testing.T) {
	const iters = 40
	for _, tc := range []struct {
		name   string
		prog   func() *graph.Program
		width  int
		stages [4]int
	}{
		{"two-groups", func() *graph.Program { return twoGroupsProg(0, nil, nil) }, 16, [4]int{16, 16, 0, 0}},
		{"trio", trioProg, 8, [4]int{8, 8, 8, 8}},
	} {
		var simRecs [][5]int
		for _, cfg := range joinConfigs(4) {
			app := newJoinApp(t, tc.prog(), cfg, 1)
			rep, err := app.Run(iters)
			if err != nil {
				t.Fatalf("%s backend %d: %v", tc.name, cfg.Backend, err)
			}
			if want := int64(iters * len(app.plan.Tasks)); rep.Iterations != iters || rep.Jobs != want {
				t.Fatalf("%s backend %d: %d iterations, %d jobs; want %d and %d (joins are not jobs)",
					tc.name, cfg.Backend, rep.Iterations, rep.Jobs, iters, want)
			}
			recs := app.Component("snk").(*joinSink).records()
			checkSinkPrefix(t, recs, iters, tc.width, tc.stages)
			checkStatesSettled(t, app)
			// The sink's output does not depend on the backend.
			if cfg.Backend == BackendSim {
				simRecs = recs
			} else if !reflect.DeepEqual(recs, simRecs) {
				t.Fatalf("%s: real backend sink differs from sim", tc.name)
			}
		}
	}
}

func TestJoinCancelBetweenFeeders(t *testing.T) {
	defer leakCheck(t)()
	// The cancel fires as feeder first#9 of iteration 5 is dispatched:
	// some of the join's sixteen feeders have completed, others have not
	// started. The rest complete as no-ops, the join still fires, its
	// entries no-op through, and the pipeline drains.
	const at = 5
	for _, cfg := range joinConfigs(4) {
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Faults = &cancelOnce{task: "first#9", iter: at, cancel: cancel}
		app := newJoinApp(t, twoGroupsProg(0, nil, nil), cfg, 1)
		rep, err := app.RunContext(ctx, 200)
		cancel()
		if err != nil || rep.Outcome != OutcomeCancelled {
			t.Fatalf("backend %d: outcome %q, error %v", cfg.Backend, rep.Outcome, err)
		}
		recs := app.Component("snk").(*joinSink).records()
		if len(recs) < rep.Iterations || len(recs) > at {
			t.Fatalf("backend %d: sink saw %d iterations, report counts %d, cancel was in %d",
				cfg.Backend, len(recs), rep.Iterations, at)
		}
		checkSinkPrefix(t, recs, len(recs), 16, [4]int{16, 16, 0, 0})
		checkStatesSettled(t, app)
		bd := app.Component("src").(*joinSource).board(at)
		if bd == nil {
			t.Fatalf("backend %d: iteration %d never started", cfg.Backend, at)
		}
		if bd.count(1) != 0 {
			t.Fatalf("backend %d: %d entries ran in the cancelled iteration", cfg.Backend, bd.count(1))
		}
		if fed := bd.count(0); cfg.Backend == BackendSim && (fed == 0 || fed == 16) {
			t.Fatalf("sim: cancel did not land between the join's feeders (%d of 16 ran)", fed)
		}
	}
}

func TestJoinEOSTail(t *testing.T) {
	// The source ends the stream at frame 12 with the pipeline six deep:
	// up to five launched iterations are cancelled and drain through
	// both groups and the join as no-ops.
	const frames = 12
	for _, cfg := range joinConfigs(6) {
		app := newJoinApp(t, twoGroupsProg(frames, nil, nil), cfg, 1)
		rep, err := app.Run(-1)
		if err != nil {
			t.Fatalf("backend %d: %v", cfg.Backend, err)
		}
		if rep.Iterations != frames {
			t.Fatalf("backend %d: %d iterations, want %d", cfg.Backend, rep.Iterations, frames)
		}
		checkSinkPrefix(t, app.Component("snk").(*joinSink).records(), frames, 16, [4]int{16, 16, 0, 0})
		checkStatesSettled(t, app)
	}
}

// optionBetweenProg puts a toggled option's slice group between two
// unconditional ones, all under one manager. In the superplan that is
// two joins, and the option's tasks — no-ops while it is disabled — are
// the entries of the first and the feeders of the second.
func optionBetweenProg(every int) *graph.Program {
	b := graph.NewBuilder("optionbetween")
	b.Stream("a").Stream("b").Stream("c")
	b.Queue("ui")
	b.Body(
		b.Component("src", "jsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{"queue": "ui", "event": "flip", "every": fmt.Sprint(every)}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("flip", graph.ActionToggle, "extra")},
			joinGroup(b, "first", 16, 0, "a", "b", nil),
			b.Option("extra", false,
				// In place on b: the board is already there, and forwarding
				// it would race with the sibling slices reading it.
				joinGroup(b, "mid", 16, 1, "b", "b", graph.Params{"after": "0", "fwd": "0"}),
			),
			joinGroup(b, "last", 16, 2, "b", "c", graph.Params{"after": "0", "optional": "1"}),
		),
		b.Component("snk", "jsink", graph.Ports{"in": "c"}, nil),
	)
	return b.MustProgram()
}

func TestJoinDisabledOptionEitherSide(t *testing.T) {
	const iters = 60
	for _, cfg := range joinConfigs(3) {
		app := newJoinApp(t, optionBetweenProg(10), cfg, 2)
		rep, err := app.Run(iters)
		if err != nil {
			t.Fatalf("backend %d: %v", cfg.Backend, err)
		}
		if rep.Reconfigs < 2 {
			t.Fatalf("backend %d: only %d reconfigurations", cfg.Backend, rep.Reconfigs)
		}
		recs := app.Component("snk").(*joinSink).records()
		checkSinkPrefix(t, recs, iters, 16, [4]int{16, -1, 16, 0})
		with := 0
		for _, rec := range recs {
			if rec[2] == 16 {
				with++
			}
		}
		if recs[0][2] != 0 || with == 0 || with == iters {
			t.Fatalf("backend %d: option ran in %d of %d iterations — never toggled", cfg.Backend, with, iters)
		}
		checkStatesSettled(t, app)
	}
}

func TestJoinReplicatedEitherSide(t *testing.T) {
	// replicate=3 lets three consecutive iterations of a task run at
	// once; each iteration still has its own join counter.
	const iters = 40
	wide := graph.Params{graph.ReplicateParam: "3"}
	for side, prog := range []func() *graph.Program{
		func() *graph.Program { return twoGroupsProg(0, wide, nil) },
		func() *graph.Program { return twoGroupsProg(0, nil, wide) },
		func() *graph.Program { return twoGroupsProg(0, wide, wide) },
	} {
		for _, cfg := range joinConfigs(5) {
			app := newJoinApp(t, prog(), cfg, 1)
			rep, err := app.Run(iters)
			if err != nil {
				t.Fatalf("side %d backend %d: %v", side, cfg.Backend, err)
			}
			if rep.Iterations != iters {
				t.Fatalf("side %d backend %d: %d iterations", side, cfg.Backend, rep.Iterations)
			}
			checkSinkPrefix(t, app.Component("snk").(*joinSink).records(), iters, 16, [4]int{16, 16, 0, 0})
			checkStatesSettled(t, app)
		}
	}
}

// faultAt injects one error: the first attempt of the named task in the
// given iteration.
type faultAt struct {
	task string
	iter int
}

func (f faultAt) Inject(task string, iter, attempt int) Fault {
	if task == f.task && iter == f.iter && attempt == 0 {
		return Fault{Kind: FaultError}
	}
	return Fault{}
}

func TestJoinSkipIteration(t *testing.T) {
	// Feeder first#5 fails in iteration 7 under skip-iteration: the
	// iteration is holed while its sibling feeders are running or done,
	// the join still fires, and none of its entries (nor the sink) runs.
	const iters, at = 30, 7
	prog := func() *graph.Program {
		b := graph.NewBuilder("skipjoin")
		b.Stream("a").Stream("b").Stream("c")
		b.Queue("fq")
		b.Body(
			b.Component("src", "jsrc", graph.Ports{"out": "a"}, nil),
			b.Manager("m", "fq", nil,
				joinGroup(b, "first", 16, 0, "a", "b", graph.Params{graph.OnErrorParam: "skip-iteration"}),
				joinGroup(b, "second", 16, 1, "b", "c", graph.Params{"after": "0"}),
			),
			b.Component("snk", "jsink", graph.Ports{"in": "c"}, nil),
		)
		return b.MustProgram()
	}
	for _, cfg := range joinConfigs(4) {
		cfg.Faults = faultAt{task: "first#5", iter: at}
		app := newJoinApp(t, prog(), cfg, 1)
		rep, err := app.Run(iters)
		if err != nil {
			t.Fatalf("backend %d: %v", cfg.Backend, err)
		}
		if rep.Faults != 1 || rep.Iterations != iters-1 {
			t.Fatalf("backend %d: %d faults, %d iterations; want 1 and %d", cfg.Backend, rep.Faults, rep.Iterations, iters-1)
		}
		recs := app.Component("snk").(*joinSink).records()
		// Close the hole, then it is the usual prefix.
		for i := range recs {
			if recs[i][0] == at {
				t.Fatalf("backend %d: the sink ran in the holed iteration", cfg.Backend)
			}
			if recs[i][0] > at {
				recs[i][0]--
			}
		}
		checkSinkPrefix(t, recs, iters-1, 16, [4]int{16, 16, 0, 0})
		if bd := app.Component("src").(*joinSource).board(at); bd.count(0) == 16 || bd.count(1) != 0 {
			t.Fatalf("backend %d: holed iteration ran %d feeders and %d entries, want < 16 and 0", cfg.Backend, bd.count(0), bd.count(1))
		}
		checkStatesSettled(t, app)
	}
}
