package hinch_test

import (
	"fmt"
	"os"
	"path/filepath"
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
// outgrow the capacity however deep PipelineDepth is. Under the
// autotuner the capacity is raised with the replica widths, and the
// raise is used: the in-flight maximum reaches the final capacity.
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
		name  string
		build func(*testing.T) (*graph.Program, int)
		cfg   hinch.Config
		tuned bool
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
	cases = append(cases, tcase{name: "autotune.xml/sim/4", tuned: true,
		build: func(t *testing.T) (*graph.Program, int) { return specProg(t, "autotune.xml"), 64 },
		cfg: hinch.Config{Backend: hinch.BackendSim, Cores: 4, StreamCapacity: 3,
			Autotune: true, TuneEpoch: 2_000_000}})

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
			if c.tuned {
				if rep.StreamCap <= limit {
					t.Fatalf("capacity never raised: %d", rep.StreamCap)
				}
				limit = rep.StreamCap
			}
			if tr.max != limit {
				t.Fatalf("%d iterations in flight at most, want the capacity %d", tr.max, limit)
			}
			for _, s := range rep.Streams {
				if s.HighWater > limit {
					t.Fatalf("stream %s grew to %d buffer sets, capacity %d", s.Name, s.HighWater, limit)
				}
			}
		})
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

func specProg(t *testing.T, name string) *graph.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xspcl.Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
