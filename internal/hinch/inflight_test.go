package hinch_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/xspcl"
)

// inflightTracer keeps launches minus retires, and its maximum as seen
// at each launch. The engine emits both events under its lock (on sim,
// from its one goroutine), so the order of Emit calls is the engine's.
type inflightTracer struct {
	mu       sync.Mutex
	cur, max int
}

func (tr *inflightTracer) Begin(hinch.TraceMeta) {}
func (tr *inflightTracer) End()                  {}
func (tr *inflightTracer) Emit(_ int, ev hinch.TraceEvent) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch ev.Kind {
	case hinch.TraceIterLaunch:
		tr.cur++
		tr.max = max(tr.max, tr.cur)
	case hinch.TraceIterRetire:
		tr.cur--
	}
}

// TestStreamBackpressureBoundsBuffers pins the one window: an iteration
// launches only while fewer than the stream capacity are in flight, on
// both backends and at every worker count, so the stream buffers never
// outgrow the capacity however deep PipelineDepth is. A replicated
// stage raises the capacity by one buffer set per replica beyond the
// first, whether its width is fixed or auto, and the raise is used: the
// in-flight maximum reaches min(StreamCapacity + Σ(width − 1),
// PipelineDepth).
func TestStreamBackpressureBoundsBuffers(t *testing.T) {
	pip := func(t *testing.T) (*graph.Program, int) {
		cfg := apps.DefaultPiP(1)
		cfg.W, cfg.H, cfg.Slices, cfg.Frames = 192, 160, 4, 24
		cfg.Reconfig, cfg.Every = true, 8
		return variantProg(t, apps.NewPiPVariant("PiP-12", cfg))
	}
	blur := func(t *testing.T) (*graph.Program, int) {
		cfg := apps.DefaultBlur(3)
		cfg.Frames, cfg.Reconfig, cfg.Every = 24, true, 8
		return variantProg(t, apps.NewBlurVariant("Blur-35", cfg))
	}
	type tcase struct {
		name     string
		build    func(*testing.T) (*graph.Program, int)
		cfg      hinch.Config
		capacity int // 0: cfg.StreamCapacity
	}
	var cases []tcase
	for _, run := range []struct {
		backend hinch.Backend
		name    string
		cores   []int
	}{{hinch.BackendSim, "sim", []int{4}}, {hinch.BackendReal, "real", []int{1, 2, 4}}} {
		for _, cores := range run.cores {
			cases = append(cases,
				tcase{name: fmt.Sprintf("PiP-12/%s/%d", run.name, cores), build: pip,
					cfg: hinch.Config{Backend: run.backend, Cores: cores, StreamCapacity: 3}},
				tcase{name: fmt.Sprintf("Blur-35/%s/%d", run.name, cores), build: blur,
					cfg: hinch.Config{Backend: run.backend, Cores: cores, StreamCapacity: 2}})
		}
	}
	// At 4 cores the model widens bh and bv to 2: 3 + 1 + 1 sets.
	cases = append(cases, tcase{name: "autotune.xml/sim/4", capacity: 5,
		build: func(t *testing.T) (*graph.Program, int) { return specProg(t, "autotune.xml"), 64 },
		cfg:   hinch.Config{Backend: hinch.BackendSim, Cores: 4, StreamCapacity: 3}})
	// Fixed widths count too: 2 + 1 + 1 sets, one short of the window.
	cases = append(cases, tcase{name: "autotune.xml/replicate=2/sim/4", capacity: 4,
		build: func(t *testing.T) (*graph.Program, int) {
			return specProg(t, "autotune.xml", `replicate="auto"`, `replicate="2"`), 64
		},
		cfg: hinch.Config{Backend: hinch.BackendSim, Cores: 4, StreamCapacity: 2}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, frames := c.build(t)
			tr := &inflightTracer{}
			cfg := c.cfg
			cfg.PipelineDepth, cfg.Workless, cfg.Tracer = 5, true, tr
			app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := app.Run(frames)
			if err != nil {
				t.Fatal(err)
			}
			limit := cfg.StreamCapacity
			if c.capacity != 0 {
				limit = c.capacity
			}
			if rep.StreamCap != limit {
				t.Fatalf("stream capacity %d, want %d", rep.StreamCap, limit)
			}
			if tr.max != limit {
				t.Fatalf("%d iterations in flight at most, want the capacity %d", tr.max, limit)
			}
			if rep.HighWater > limit || rep.Occupancy != 0 {
				t.Fatalf("window filled %d buffer sets, capacity %d, and ended holding %d", rep.HighWater, limit, rep.Occupancy)
			}
		})
	}
}

// TestReplicateFixedWidthsCountTowardCapacity: a fixed replicate="N"
// width raises the stream capacity like an auto one, so the width is
// used. autotune.xml with both blur stages at replicate="3" on eight
// cores runs at capacity 5 and takes fewer cycles than at "2"
// (capacity 5 too, but two replicas a stage) — with the capacity left
// at 3, every width above 2 had nothing to run.
func TestReplicateFixedWidthsCountTowardCapacity(t *testing.T) {
	cycles, caps := map[int]int64{}, map[int]int{}
	for _, n := range []int{2, 3} {
		cfg := hinch.Config{Backend: hinch.BackendSim, Cores: 8, Workless: true}
		prog := specProg(t, "autotune.xml", `replicate="auto"`, fmt.Sprintf(`replicate="%d"`, n))
		app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(64)
		if err != nil {
			t.Fatal(err)
		}
		cycles[n], caps[n] = rep.Cycles, rep.StreamCap
	}
	if cycles[3] >= cycles[2] {
		t.Errorf("replicate=3 took %d cycles, replicate=2 %d: the third replica did not run", cycles[3], cycles[2])
	}
	if caps[2] != 5 || caps[3] != 5 {
		t.Errorf("stream capacities %v, want min(3 + Σ(width − 1), 5) = 5 at both widths", caps)
	}
}

func variantProg(t *testing.T, v *apps.Variant) (*graph.Program, int) {
	t.Helper()
	prog, err := v.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog, v.Frames
}

// specProg loads examples/specs/name, with each old, new pair of
// replace substituted in its source.
func specProg(t *testing.T, name string, replace ...string) *graph.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xspcl.Load(strings.NewReplacer(replace...).Replace(string(src)))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
