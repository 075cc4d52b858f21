package apps

import (
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/xspcl"
)

// yieldHooks perturbs the real backend's schedule: a seeded share of
// completions, enqueues and dispatches yield the worker first.
type yieldHooks struct {
	seed uint64
	ctr  atomic.Uint64
}

func (h *yieldHooks) Yield(p hinch.YieldPoint) {
	if p != hinch.YieldComplete && p != hinch.YieldEnqueue && p != hinch.YieldDispatch {
		return
	}
	if (h.ctr.Add(1)*0x9E3779B97F4A7C15+h.seed)>>61 < 3 {
		runtime.Gosched()
	}
}

func (h *yieldHooks) StealSeed(worker int) uint64 {
	return h.seed*0x9E3779B97F4A7C15 + uint64(worker) + 1
}

// TestReconfiguringSinkMatchesSimOnReal is the determinism contract for
// reconfiguring programs: every event lands at a fixed iteration
// distance, so the real backend's sink output equals the sim's at every
// worker count and under perturbed schedules. It covers the three
// reconfigurable applications, toggled by triggers, fallback.xml,
// degraded by fault events, and the example specs whose every read is
// defined: pipeline.xml reconfigures, autotune.xml resolves its
// replica widths per worker count, and formats.xml has two sinks.
func TestReconfiguringSinkMatchesSimOnReal(t *testing.T) {
	pip := smallPiP(1)
	pip.Reconfig, pip.Frames = true, 24
	jpip := smallJPiP(1)
	jpip.Reconfig, jpip.Frames = true, 16
	blur := smallBlur(3)
	blur.Reconfig, blur.Frames = true, 20
	variant := func(v *Variant) func(t *testing.T) (*graph.Program, int) {
		return func(t *testing.T) (*graph.Program, int) {
			prog, err := v.Program()
			if err != nil {
				t.Fatal(err)
			}
			return prog, v.Frames
		}
	}
	spec := func(file string, frames int) func(t *testing.T) (*graph.Program, int) {
		return func(t *testing.T) (*graph.Program, int) {
			src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", file))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := xspcl.Load(string(src))
			if err != nil {
				t.Fatal(err)
			}
			return prog, frames
		}
	}
	cases := []struct {
		name string
		prog func(t *testing.T) (*graph.Program, int)
		cfg  hinch.Config
	}{
		{"PiP-12", variant(NewPiPVariant("PiP-12", pip)), hinch.Config{}},
		{"JPiP-12", variant(NewJPiPVariant("JPiP-12", jpip)), hinch.Config{}},
		{"Blur-35", variant(NewBlurVariant("Blur-35", blur)), hinch.Config{}},
		// Every bh attempt from frame 3 on fails; the fault event from
		// frame 3 is delivered by the entry of frame 6, so frames 3-6 are
		// holes and frame 7 runs the copy.
		{"fallback.xml", spec("fallback.xml", 8),
			hinch.Config{PipelineDepth: 3, Faults: &hinch.SeededFaults{Task: "bh", From: 3}}},
		// The flip from frame 4 switches frame 7 to the copy; at the
		// default depth of 5 it would land after the last frame.
		{"pipeline.xml", spec("pipeline.xml", 8), hinch.Config{PipelineDepth: 2}},
		{"autotune.xml", spec("autotune.xml", 16), hinch.Config{}},
		{"formats.xml", spec("formats.xml", 8), hinch.Config{}},
	}
	runs := 10
	if testing.Short() {
		runs = 2
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, n := c.prog(t)
			reconfigures := len(prog.Options()) > 0
			run := func(cfg hinch.Config) (uint64, int64) {
				t.Helper()
				app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := app.Run(n)
				if err != nil {
					t.Fatal(err)
				}
				var sum uint64
				for _, c := range prog.Components() {
					if c.Class == "videosink" {
						sum = sum*31 + app.Component(c.Name).(*components.VideoSink).Checksum()
					}
				}
				return sum, rep.Reconfigs
			}
			cfg := c.cfg
			cfg.Backend, cfg.Cores = hinch.BackendSim, 4
			want, reconfigs := run(cfg)
			if reconfigures && reconfigs == 0 {
				t.Fatal("the sim run never reconfigured")
			}
			for _, w := range []int{1, 2, 4, 8} {
				for r := range runs {
					cfg := c.cfg
					cfg.Backend, cfg.Cores = hinch.BackendReal, w
					cfg.Hooks = &yieldHooks{seed: uint64(w*runs + r)}
					if got, rc := run(cfg); got != want || rc != reconfigs {
						t.Fatalf("real/%dw run %d: sink checksum %016x after %d reconfigurations, sim %016x after %d",
							w, r, got, rc, want, reconfigs)
					}
				}
			}
		})
	}
}
