package hinch

import (
	"fmt"
	"testing"
	"time"

	"xspcl/internal/graph"
)

// wideProg is a scheduler stress graph: src feeding a 16-way slice
// group into a sink, all with small fixed costs.
func wideProg() *graph.Program {
	b := graph.NewBuilder("wide")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "bmsrc", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeSlice, 16,
			b.Component("m", "marker", graph.Ports{"in": "a", "out": "b"}, nil),
		),
		b.Component("snk", "bmsink", graph.Ports{"in": "b"}, graph.Params{"expect": "16"}),
	)
	return b.MustProgram()
}

func BenchmarkSimSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app, err := NewApp(wideProg(), testRegistry(), Config{Backend: BackendSim, Cores: 8})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := app.Run(50)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Jobs == 0 {
			b.Fatal("no jobs")
		}
	}
}

func BenchmarkRealSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app, err := NewApp(wideProg(), testRegistry(), Config{Backend: BackendReal, Cores: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultFreeOverhead tracks the cost of the fault-tolerance
// machinery when it is idle: "default" is the plain scheduler-bound
// workload (nil Config.Faults, implicit fail-fast policies) and
// "policied" declares a retry policy on every slice task that never
// fires. Neither may regress against BenchmarkRealSchedule: the
// fault-free path must stay free.
func BenchmarkFaultFreeOverhead(b *testing.B) {
	prog := func(policied bool) *graph.Program {
		var params graph.Params
		if policied {
			params = graph.Params{graph.OnErrorParam: "retry:2,backoff=2x"}
		}
		bd := graph.NewBuilder("wide")
		bd.Stream("a").Stream("b")
		bd.Body(
			bd.Component("src", "bmsrc", graph.Ports{"out": "a"}, nil),
			bd.Parallel(graph.ShapeSlice, 16,
				bd.Component("m", "marker", graph.Ports{"in": "a", "out": "b"}, params),
			),
			bd.Component("snk", "bmsink", graph.Ports{"in": "b"}, graph.Params{"expect": "16"}),
		)
		return bd.MustProgram()
	}
	for _, bc := range []struct {
		name     string
		policied bool
	}{{"default", false}, {"policied", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				app, err := NewApp(prog(bc.policied), testRegistry(), Config{Backend: BackendReal, Cores: 8})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := app.Run(50)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Faults != 0 || rep.Retries != 0 || rep.Degradations != 0 {
					b.Fatal("fault-free run recorded fault activity")
				}
			}
		})
	}
}

// BenchmarkReplicatedThroughput runs the spin-bottleneck chain on the
// real backend at fixed replica widths: the width-2 and width-4 numbers
// over width-1 show the throughput replication buys when the hot stage
// is the serial bound (given enough CPUs; on a starved host the widths
// converge to the same number).
func BenchmarkReplicatedThroughput(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("width%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				app, err := NewApp(spinChainProg(20000, fmt.Sprint(w)), testRegistry(),
					Config{Backend: BackendReal, Cores: 4, PipelineDepth: 8})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := app.Run(64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAutotuneOverhead tracks the autotuner's cost on the same
// chain: "disabled" is the plain run (no tuner allocated), "idle" arms
// the tuner on a program with no replicate="auto" stages (sampling
// ticks, nothing to resize), "active" gives it an auto stage and a fast
// epoch so it takes live decisions. Disabled and idle must stay within
// noise of each other: the sampling path is two atomic adds per job and
// a ticker under the engine lock.
func BenchmarkAutotuneOverhead(b *testing.B) {
	for _, bc := range []struct {
		name string
		rep  string
		tune bool
	}{{"disabled", "", false}, {"idle", "", true}, {"active", "auto", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := Config{Backend: BackendReal, Cores: 4, PipelineDepth: 8,
					Autotune: bc.tune, TuneEpochWall: 200 * time.Microsecond}
				app, err := NewApp(spinChainProg(2000, bc.rep), testRegistry(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := app.Run(200); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewApp(wideProg(), testRegistry(), Config{Backend: BackendSim, Cores: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventQueue(b *testing.B) {
	q := NewEventQueue()
	for i := 0; i < b.N; i++ {
		q.Push(Event{Name: "e"})
		if i%64 == 63 {
			q.Drain()
		}
	}
}
