package hinch

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xspcl/internal/graph"
	"xspcl/internal/media"
)

// frameTap records the frame each iteration finds at its output port.
type frameTap struct {
	mu     sync.Mutex
	frames []*media.Frame
}

func (c *frameTap) Init(*InitContext) error { return nil }

func (c *frameTap) Run(rc *RunContext) error {
	f, err := FrameOf(rc.Out("out"), "out")
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
	rc.Charge(100)
	return nil
}

// TestBufferWindowAbortedRunKeepsHeldFrames checks what an aborted run
// hands back to media's frame free-list: the frames of the window's
// free buffer sets, and never a frame of a set some unfinished
// iteration still holds — a failed component may still reference it.
func TestBufferWindowAbortedRunKeepsHeldFrames(t *testing.T) {
	// A geometry no other test uses, so the free-list entries seen below
	// are this test's.
	const w, h = 46, 22
	b := graph.NewBuilder("abort")
	b.FrameStream("f", w, h).Stream("b")
	b.Body(
		b.Component("src", "frametap", graph.Ports{"out": "f"}, nil),
		b.Component("f", "failer", graph.Ports{"in": "f", "out": "b"}, graph.Params{"at": "9"}),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	prog := b.MustProgram()
	for _, backend := range []Backend{BackendSim, BackendReal} {
		reg := testRegistry()
		reg.Register("frametap", ClassSpec{New: func() Component { return &frameTap{} }, Out: []string{"out"}})
		app, err := NewApp(prog, reg, Config{Backend: backend, Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(40); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Fatalf("backend %d: error = %v", backend, err)
		}
		free := map[int]bool{}
		win := app.eng.win
		for _, set := range win.free {
			free[set] = true
		}
		s := app.Stream("f")
		held := map[*media.Frame]bool{}
		drained := 0
		for set := 0; set < int(win.hw.Load()); set++ {
			switch sl := s.slots[set]; {
			case free[set] && sl.own != nil:
				t.Errorf("backend %d: free set %d kept its frame", backend, set)
			case free[set]:
				drained++
			case sl.own == nil:
				t.Errorf("backend %d: held set %d lost its frame", backend, set)
			default:
				held[sl.own.(*media.Frame)] = true
			}
		}
		if len(held) == 0 {
			t.Fatalf("backend %d: no buffer set held at the abort; the test checks nothing", backend)
		}
		if backend == BackendSim && drained == 0 {
			t.Fatalf("sim: no free buffer set at the abort; the test checks nothing")
		}
		ran := map[*media.Frame]bool{}
		for _, f := range app.Component("src").(*frameTap).frames {
			ran[f] = true
		}
		// Empty the free-list of this geometry: it has at most one frame
		// per drained set, so one more Get than that must be fresh.
		recycled := 0
		for i := 0; i <= drained; i++ {
			f := media.GetFrame(w, h)
			if held[f] {
				t.Errorf("backend %d: a frame of a held set went back to the free-list", backend)
			}
			if ran[f] {
				recycled++
			}
		}
		if recycled != drained {
			t.Errorf("backend %d: %d frames recycled, want the %d of the free sets", backend, recycled, drained)
		}
	}
}

// windowTracer records, per iteration, its launches, the tasks whose
// jobs took its buffer set and its releases of the set.
type windowTracer struct {
	mu       sync.Mutex
	launches map[int32]int
	acquires map[int32][]int32
	releases map[int32]int
}

func (tr *windowTracer) Begin(TraceMeta) {
	tr.launches, tr.acquires, tr.releases = map[int32]int{}, map[int32][]int32{}, map[int32]int{}
}

func (tr *windowTracer) End() {}

func (tr *windowTracer) Emit(_ int, ev TraceEvent) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch ev.Kind {
	case TraceIterLaunch:
		tr.launches[ev.Iter]++
	case TraceStreamAcquire:
		tr.acquires[ev.Iter] = append(tr.acquires[ev.Iter], ev.ID)
	case TraceStreamRelease:
		tr.releases[ev.Iter]++
	}
}

// TestBufferWindowAcquiredOnceByARoot pins the acquisition rule: only a
// root job — one that waits on nothing in its own iteration — can be
// the first of its iteration to dispatch, so only roots take the lock
// to acquire. Two sources make two roots per iteration, and the second
// finds the set already taken. On sim and on real at 1, 2, 4 and 8
// workers every launched iteration must take its set exactly once, at a
// root's job, and return it once, and both sinks must read their own
// iteration's values.
func TestBufferWindowAcquiredOnceByARoot(t *testing.T) {
	b := graph.NewBuilder("tworoots")
	b.Stream("a").Stream("b").Stream("c")
	b.Body(b.Parallel(graph.ShapeTask, 0,
		b.Seq(
			b.Component("src1", "intsrc", graph.Ports{"out": "a"}, nil),
			b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, nil),
			b.Component("snk1", "intsink", graph.Ports{"in": "b"}, nil),
		),
		b.Seq(
			b.Component("src2", "intsrc", graph.Ports{"out": "c"}, nil),
			b.Component("snk2", "intsink", graph.Ports{"in": "c"}, nil),
		),
	))
	prog := b.MustProgram()
	const iters = 200
	cfgs := []Config{{Backend: BackendSim, Cores: 4}}
	for _, workers := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, Config{Backend: BackendReal, Cores: workers})
	}
	for _, cfg := range cfgs {
		name := "sim"
		if cfg.Backend == BackendReal {
			name = "real"
		}
		t.Run(fmt.Sprintf("%s/%d", name, cfg.Cores), func(t *testing.T) {
			tr := &windowTracer{}
			cfg.Tracer = tr
			app, rep := runApp(t, prog, cfg, iters)
			roots := map[int32]bool{}
			for _, task := range app.Plan().Tasks {
				if len(task.DirectDeps) == 0 && task.WaitsOn == graph.NoJoin {
					roots[int32(task.ID)] = true
				}
			}
			if len(roots) != 2 {
				t.Fatalf("%d roots, want the two sources", len(roots))
			}
			if rep.Iterations != iters || len(tr.launches) != iters {
				t.Fatalf("%d iterations processed, %d launched, want %d", rep.Iterations, len(tr.launches), iters)
			}
			for k := range int32(iters) {
				acq := tr.acquires[k]
				if tr.launches[k] != 1 || len(acq) != 1 || tr.releases[k] != 1 {
					t.Fatalf("iteration %d: %d launches, acquisitions by tasks %v, %d releases; want one each",
						k, tr.launches[k], acq, tr.releases[k])
				}
				if !roots[acq[0]] {
					t.Fatalf("iteration %d took its buffer set at task %d, not a root", k, acq[0])
				}
			}
			for sink, mul := range map[string]int{"snk1": 2, "snk2": 1} {
				vals := app.Component(sink).(*intSink).values()
				for i, v := range vals {
					if v != mul*i {
						t.Fatalf("%s: iteration %d read %d, want %d", sink, i, v, mul*i)
					}
				}
				if len(vals) != iters {
					t.Fatalf("%s saw %d values, want %d", sink, len(vals), iters)
				}
			}
			if rep.Occupancy != 0 || rep.HighWater > rep.StreamCap {
				t.Fatalf("window ended holding %d sets, high-water %d of %d", rep.Occupancy, rep.HighWater, rep.StreamCap)
			}
		})
	}
}
