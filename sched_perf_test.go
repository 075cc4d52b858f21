package xspcl_test

import (
	"fmt"
	"testing"

	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// schedThroughputProgram is a scheduler-stress graph: a wide sliced
// graph of trivial components, so job dispatch dominates. The source
// has more frames than TestSchedulerSteadyStateAllocs's longer run, so
// neither of its runs ends early at EOS; with loop it repeats them
// instead of ending at all.
func schedThroughputProgram(loop bool) *graph.Program {
	src := graph.Params{"width": "64", "height": "48", "frames": "512"}
	if loop {
		src["eos"] = "0"
	}
	gb := graph.NewBuilder("sched")
	gb.FrameStream("v", 64, 48)
	gb.Body(
		gb.Component("src", "videosrc", graph.Ports{"out": "v"}, src),
		gb.Parallel(graph.ShapeSlice, 16,
			gb.Component("c", "copyplane", graph.Ports{"in": "v", "out": "v2"}, nil),
		),
		gb.Component("snk", "videosink", graph.Ports{"in": "v2"}, nil),
	)
	gb.FrameStream("v2", 64, 48)
	return gb.MustProgram()
}

// TestSchedulerSteadyStateAllocs pins the scheduler's zero-allocation
// steady state: the marginal cost of an extra iteration through the
// dispatch loop must be less than one allocation, without and with
// telemetry. An App runs once, so the hot path can't be isolated with
// AllocsPerRun directly; instead the test measures build+run at two
// iteration counts and divides the difference by the extra iterations —
// construction garbage is identical on both sides and cancels, leaving
// only the per-iteration dispatch cost; so does starting the workers,
// which costs the same at any iteration count. Both runs must complete
// every iteration they ask for, or the difference measures nothing.
// AllocsPerRun sets GOMAXPROCS to 1, so nothing steals here: the steal
// path is guarded by the hotalloc vet check instead.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is slow under -short")
	}
	prog := schedThroughputProgram(false)
	reg := components.DefaultRegistry()
	const lo, hi = 64, 256
	for _, telemetry := range []bool{false, true} {
		measure := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() {
				app, err := hinch.NewApp(prog, reg, hinch.Config{
					Backend: hinch.BackendReal, Cores: 4, Workless: true, Telemetry: telemetry,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := app.Run(iters)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Iterations != iters {
					t.Fatalf("telemetry=%v: ran %d iterations, want %d", telemetry, rep.Iterations, iters)
				}
			})
		}
		allocLo := measure(lo)
		allocHi := measure(hi)
		perIter := (allocHi - allocLo) / float64(hi-lo)
		t.Logf("telemetry=%v: allocs: %.0f @ %d iters, %.0f @ %d iters -> %.3f allocs/iter",
			telemetry, allocLo, lo, allocHi, hi, perIter)
		if perIter >= 1 {
			t.Errorf("telemetry=%v: scheduler hot path allocates %.3f allocs per iteration, want < 1",
				telemetry, perIter)
		}
	}
}

// BenchmarkDispatchPerJob times the real backend's engine work per job:
// schedThroughputProgram with Workless kernels, so a job is its
// dispatch, dependency counting and completion around an empty
// component, at one and two workers. One App runs b.N iterations; its
// construction is not timed. It reports ns/job, the wall time of the
// run over the jobs it dispatched.
func BenchmarkDispatchPerJob(b *testing.B) {
	prog := schedThroughputProgram(true)
	reg := components.DefaultRegistry()
	for _, cores := range []int{1, 2} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			app, err := hinch.NewApp(prog, reg, hinch.Config{
				Backend: hinch.BackendReal, Cores: cores, Workless: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			rep, err := app.Run(b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Iterations != b.N {
				b.Fatalf("ran %d iterations, want %d", rep.Iterations, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rep.Jobs), "ns/job")
		})
	}
}
