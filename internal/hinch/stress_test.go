package hinch

import (
	"fmt"
	"strings"
	"testing"

	"xspcl/internal/graph"
)

// Stress tests for the real backend's work-stealing scheduler. These
// are the tests that must stay green under `go test -race`: many
// workers, wide fan-out, long chains, and error paths.

// initFailer is a component whose construction fails — used to drive
// errors out of the reconfiguration splice (option instance creation
// inside the quiescent window).
type initFailer struct{}

func (c *initFailer) Init(ic *InitContext) error { return fmt.Errorf("deliberate init failure") }
func (c *initFailer) Run(rc *RunContext) error   { return nil }

func stressRegistry() *Registry {
	r := testRegistry()
	r.Register("initfail", ClassSpec{New: func() Component { return &initFailer{} }, In: []string{"in"}, Out: []string{"out"}})
	return r
}

// wideStressProg fans one source out to `width` slice markers that all
// write the same shared bitmap, then checks every mark at the sink —
// any lost release, duplicate execution, or reordering shows up as a
// bad bitmap or a wrong iteration count.
func wideStressProg(width int) *graph.Program {
	b := graph.NewBuilder("widestress")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "bmsrc", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeSlice, width,
			b.Component("m", "marker", graph.Ports{"in": "a", "out": "b"}, nil),
		),
		b.Component("snk", "bmsink", graph.Ports{"in": "b"}, graph.Params{"expect": fmt.Sprint(width)}),
	)
	return b.MustProgram()
}

func TestRealStressWideFanout8Workers(t *testing.T) {
	const width, iters = 16, 300
	app, rep := runApp(t, wideStressProg(width), Config{Backend: BackendReal, Cores: 8}, iters)
	if rep.Iterations != iters {
		t.Fatalf("ran %d iterations, want %d", rep.Iterations, iters)
	}
	sink := app.Component("snk").(*bitmapSink)
	if sink.seen != iters || sink.bad != 0 {
		t.Fatalf("sink saw %d iterations with %d bad slices", sink.seen, sink.bad)
	}
}

func TestRealStressChainOrdered8Workers(t *testing.T) {
	const iters = 500
	app, rep := runApp(t, chainProg(), Config{Backend: BackendReal, Cores: 8}, iters)
	if rep.Iterations != iters {
		t.Fatalf("ran %d iterations, want %d", rep.Iterations, iters)
	}
	vals := app.Component("snk").(*intSink).values()
	if len(vals) != iters {
		t.Fatalf("sink got %d values, want %d", len(vals), iters)
	}
	// Cross-iteration serialization per instance means the sink runs in
	// iteration order even with 8 workers racing.
	for i, v := range vals {
		if v != 2*i {
			t.Fatalf("value %d = %d, want %d", i, v, 2*i)
		}
	}
}

func TestRealStressReconfiguring8Workers(t *testing.T) {
	const iters = 200
	app, rep := runApp(t, reconfigProg(false, 10),
		Config{Backend: BackendReal, Cores: 8, PipelineDepth: 3}, iters)
	if rep.Reconfigs < 2 {
		t.Fatalf("only %d reconfigs", rep.Reconfigs)
	}
	vals := app.Component("snk").(*intSink).values()
	if len(vals) != iters {
		t.Fatalf("sink got %d values, want %d", len(vals), iters)
	}
	for i, v := range vals {
		if v != 2*i && v != 2*i+2000 {
			t.Fatalf("value %d = %d, want %d or %d", i, v, 2*i, 2*i+2000)
		}
	}
}

// lazyFailProg embeds an option whose component cannot be constructed.
// With LazyCreation the instance is created inside applyReconfig — at
// the quiescent window, during a job's complete() — so this exercises
// the explicit error return from complete() on both backends.
func lazyFailProg() *graph.Program {
	b := graph.NewBuilder("lazyfail")
	b.Stream("a").Stream("b")
	b.Queue("ui")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{
			"queue": "ui", "event": "boost", "every": "5"}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("boost", graph.ActionEnable, "extra")},
			b.Component("base", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "0"}),
			b.Option("extra", false,
				b.Component("x", "initfail", graph.Ports{"in": "b", "out": "b"}, nil),
			),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

func TestCompleteErrorAbortsRun(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, err := NewApp(lazyFailProg(), stressRegistry(), Config{
			Backend: backend, Cores: 8, LazyCreation: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = app.Run(40)
		if err == nil || !strings.Contains(err.Error(), "deliberate init failure") {
			t.Fatalf("backend %d: error = %v, want init failure surfaced from complete()", backend, err)
		}
	}
}
