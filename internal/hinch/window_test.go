package hinch

import (
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
		for _, set := range app.win.free {
			free[set] = true
		}
		s := app.Stream("f")
		held := map[*media.Frame]bool{}
		drained := 0
		for set := 0; set < s.HighWater(); set++ {
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
