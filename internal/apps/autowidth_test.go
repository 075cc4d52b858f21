package apps

// Auto replica widths on the paper's reconfigurable variants and on two
// bottlenecked pipelines. The widths are resolved once, at load, from
// the prediction model (predict.AutoWidths), so every run here is a
// plain sim run whose cycles can be compared and bounded.

import (
	"os"
	"path/filepath"
	"testing"

	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/xspcl"
)

// narrowBlur35 is Blur-35 with a single data-parallel slice: the
// convolution stages become hot serial tasks, where the paper geometry
// (whose slicing already spreads every stage thin) has none.
func narrowBlur35() *Variant {
	cfg := DefaultBlur(3)
	cfg.Slices = 1
	cfg.Reconfig = true
	return NewBlurVariant("Blur-35-narrow", cfg)
}

// markAuto marks every stateless component of prog replicate="auto".
func markAuto(prog *graph.Program) {
	reg := components.DefaultRegistry()
	graph.Walk(prog.Root, func(n *graph.Node) {
		if n.Kind == graph.KindComponent && reg.ClassStateless(n.Class) {
			if n.Params == nil {
				n.Params = graph.Params{}
			}
			n.Params[graph.ReplicateParam] = "auto"
		}
	})
}

// variantProgram elaborates v.
func variantProgram(t *testing.T, v *Variant) *graph.Program {
	t.Helper()
	prog, err := v.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// simCycles runs prog workless on the sim backend and returns its
// virtual completion time.
func simCycles(t *testing.T, prog *graph.Program, cores, frames int) int64 {
	t.Helper()
	cfg := hinch.Config{Backend: hinch.BackendSim, Cores: cores, Workless: true}
	app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Cycles
}

// TestAutoWidthsKeepPaperVariants: the paper's slicing already spreads
// every stage thin, so with every stateless stage marked auto the model
// resolves each width to 1 and the run is cycle-identical to the
// unmarked one.
func TestAutoWidthsKeepPaperVariants(t *testing.T) {
	for _, name := range []string{"PiP-12", "JPiP-12", "Blur-35"} {
		t.Run(name, func(t *testing.T) {
			v, err := VariantByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plain, marked := variantProgram(t, v), variantProgram(t, v)
			markAuto(marked)
			if a, b := simCycles(t, plain, 4, v.Frames), simCycles(t, marked, 4, v.Frames); a != b {
				t.Fatalf("marked auto: %d cycles, unmarked %d", b, a)
			}
		})
	}
}

// TestAutoWidthsBeatRuntimeSearch bounds the bottlenecked pipelines by
// the best cycles the runtime width search they replace ever reached
// on them (Blur-35-narrow with a 5M-cycle epoch, autotune.xml with a
// 500us one); resolving the widths at load spends no warm-up.
func TestAutoWidthsBeatRuntimeSearch(t *testing.T) {
	narrow := narrowBlur35()
	prog := variantProgram(t, narrow)
	markAuto(prog)
	if got := simCycles(t, prog, 4, narrow.Frames); got > 97_635_688 {
		t.Errorf("Blur-35-narrow at 4 cores: %d cycles, want <= 97 635 688", got)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "autotune.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cores int
		bound int64
	}{{4, 9_198_101}, {8, 8_014_042}} {
		prog, err := xspcl.Load(string(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := simCycles(t, prog, c.cores, 64); got > c.bound {
			t.Errorf("autotune.xml at %d cores: %d cycles, want <= %d", c.cores, got, c.bound)
		}
	}
}
