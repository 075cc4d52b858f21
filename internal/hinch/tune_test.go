package hinch

// The deterministic tuning test family. The autotuner's decision trace
// is part of the runtime's observable behaviour, so these tests pin it
// the same way the conformance battery pins payload order: on the sim
// backend the trace must be byte-identical across runs, the tuner must
// converge on the statically-predictable width of a synthetic
// bottleneck without oscillating, and on the real backend the widening
// must buy actual wall-clock throughput.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xspcl/internal/graph"
)

// tuneChainProg builds src -> dbl -> snk where the middle stage costs
// hotCost simulated ops (the ends cost 100) and carries the given
// replicate spec ("" for none). With hotCost >> 100 the middle stage is
// the serial bottleneck the tuner should widen.
func tuneChainProg(hotCost int, rep string) *graph.Program {
	hot := graph.Params{"cost": fmt.Sprint(hotCost)}
	if rep != "" {
		hot[graph.ReplicateParam] = rep
	}
	b := graph.NewBuilder("tunechain")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, hot),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

// spinChainProg builds src -> dbl -> snk where the middle stage burns
// spin iterations of real CPU work (see spinWork) and carries the given
// replicate spec — the real-backend counterpart of tuneChainProg.
func spinChainProg(spin int, rep string) *graph.Program {
	hot := graph.Params{"spin": fmt.Sprint(spin)}
	if rep != "" {
		hot[graph.ReplicateParam] = rep
	}
	b := graph.NewBuilder("spinchain")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, hot),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

// widthDecisions filters the tune log down to one task's moves.
func widthDecisions(log []TuneDecision, name string) []TuneDecision {
	var out []TuneDecision
	for _, d := range log {
		if d.Name == name {
			out = append(out, d)
		}
	}
	return out
}

// tuneTrace renders a decision log as one comparable string.
func tuneTrace(log []TuneDecision) string {
	lines := make([]string, len(log))
	for i, d := range log {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// TestAutotuneConvergesOnBottleneck: on the sim backend a 20x-hot
// replicate="auto" stage is widened step by step to the
// statically-predictable sizing — with five cores, four replicas
// saturate four of them and the fifth carries the two cheap stages, so
// the tuner stops one short of its min(PipelineDepth, Cores) cap — and
// then left alone, with the stream-FIFO capacity raised by one buffer
// set per extra replica so the four replicas have iterations to run.
// Every
// decision is a single-step widen, none is ever undone (the
// hysteresis/cooldown machinery prevents oscillation), and the
// decisions stop well before the run ends. Output order must survive
// the live resizes. The epoch length (25000 cycles, ~12 hot jobs per
// replica) averages over enough iterations that job-completion
// charging does not alias against the epoch boundary.
func TestAutotuneConvergesOnBottleneck(t *testing.T) {
	const iters = 600
	cfg := Config{Backend: BackendSim, Cores: 5, PipelineDepth: 8,
		Autotune: true, TuneEpoch: 25000}
	app, rep := runApp(t, tuneChainProg(2000, "auto"), cfg, iters)

	sink := app.Component("snk").(*intSink)
	vals := sink.values()
	if len(vals) != iters {
		t.Fatalf("sink saw %d values, want %d", len(vals), iters)
	}
	for i, v := range vals {
		if v != 2*i {
			t.Fatalf("value %d = %d, want %d (resize broke ordering)", i, v, 2*i)
		}
	}

	ws := widthDecisions(rep.TuneLog, "dbl")
	if len(ws) == 0 {
		t.Fatalf("no width decisions for the bottleneck stage; log:\n%s", tuneTrace(rep.TuneLog))
	}
	want := 1
	for _, d := range ws {
		if d.From != want || d.To != want+1 {
			t.Fatalf("non-monotonic width move %s (expected %d->%d); log:\n%s",
				d, want, want+1, tuneTrace(rep.TuneLog))
		}
		want = d.To
	}
	if want != cfg.Cores-1 {
		t.Fatalf("converged width %d, want %d (every core but the one the cheap stages need); log:\n%s",
			want, cfg.Cores-1, tuneTrace(rep.TuneLog))
	}
	// The default capacity 3 plus one buffer set per extra replica,
	// under PipelineDepth.
	if want := min(3+3, 8); rep.StreamCap != want {
		t.Fatalf("final stream capacity %d, want %d = min(StreamCapacity + width - 1, PipelineDepth)",
			rep.StreamCap, want)
	}
	if st := rep.Tune.Stats; st.Shrink != 0 {
		t.Fatalf("tuner oscillated: %d shrink decisions; log:\n%s", st.Shrink, tuneTrace(rep.TuneLog))
	}
	last := rep.TuneLog[len(rep.TuneLog)-1].Epoch
	if rep.Tune.Stats.Epochs-last < 3 {
		t.Fatalf("still tuning at the end (last decision epoch %d of %d); log:\n%s",
			last, rep.Tune.Stats.Epochs, tuneTrace(rep.TuneLog))
	}
}

// TestAutotuneTraceDeterministic: five runs of the same tuned program
// on the sim backend produce byte-identical decision traces.
func TestAutotuneTraceDeterministic(t *testing.T) {
	cfg := Config{Backend: BackendSim, Cores: 5, PipelineDepth: 8,
		Autotune: true, TuneEpoch: 25000}
	var first string
	for run := 0; run < 5; run++ {
		_, rep := runApp(t, tuneChainProg(2000, "auto"), cfg, 600)
		trace := tuneTrace(rep.TuneLog)
		if run == 0 {
			if trace == "" {
				t.Fatal("empty decision trace")
			}
			first = trace
			continue
		}
		if trace != first {
			t.Fatalf("run %d trace diverged:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
				run, first, run, trace)
		}
	}
}

// TestAutotuneOffKeepsAutoInert: without Config.Autotune a
// replicate="auto" mark is inert — the sim run costs exactly the same
// virtual cycles as the unmarked program and the report carries no
// tuner state.
func TestAutotuneOffKeepsAutoInert(t *testing.T) {
	cfg := Config{Backend: BackendSim, Cores: 4, PipelineDepth: 8}
	_, base := runApp(t, tuneChainProg(2000, ""), cfg, 200)
	_, auto := runApp(t, tuneChainProg(2000, "auto"), cfg, 200)
	if auto.Cycles != base.Cycles {
		t.Fatalf("auto mark changed the untuned schedule: %d cycles vs %d", auto.Cycles, base.Cycles)
	}
	if len(auto.TuneLog) != 0 || auto.Tune != nil {
		t.Fatalf("tuner state without Autotune: %+v / %v", auto.Tune, auto.TuneLog)
	}
}

// TestAutotuneBottleneckSpeedup: on the real backend with 4 workers, a
// spin-heavy replicate="auto" stage runs at least 1.5x faster with the
// autotuner on than with it off (where the auto width stays 1 and the
// stage is serial). Timing-sensitive, so it retries on slow machines
// and skips under -short or without enough cores.
func TestAutotuneBottleneckSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need 4 CPUs, have %d", runtime.NumCPU())
	}
	prog := func() *graph.Program { return spinChainProg(50000, "auto") }
	const iters = 400
	run := func(tune bool) (time.Duration, *Report) {
		cfg := Config{Backend: BackendReal, Cores: 4, PipelineDepth: 8,
			Autotune: tune, TuneEpoch: 500 * time.Microsecond}
		app, rep := runApp(t, prog(), cfg, iters)
		sink := app.Component("snk").(*intSink)
		if vals := sink.values(); len(vals) != iters {
			t.Fatalf("tune=%v: sink saw %d values, want %d", tune, len(vals), iters)
		}
		return rep.Wall, rep
	}
	const attempts = 3
	var speedup float64
	for a := 0; a < attempts; a++ {
		static, _ := run(false)
		tuned, rep := run(true)
		if rep.Tune == nil || rep.Tune.Stats.Widen == 0 {
			t.Fatalf("tuner never widened the bottleneck; log:\n%s", tuneTrace(rep.TuneLog))
		}
		speedup = float64(static) / float64(tuned)
		t.Logf("attempt %d: static %v, tuned %v, speedup %.2fx (%d widen)",
			a, static, tuned, speedup, rep.Tune.Stats.Widen)
		if speedup >= 1.5 {
			return
		}
	}
	t.Fatalf("autotuned bottleneck only %.2fx faster after %d attempts, want >= 1.5x", speedup, attempts)
}

// TestConfigDefaults pins every value withDefaults fills, per backend:
// the epoch lengths follow the one duration rule (virtual cycles on
// sim, wall time on real), and an explicit epoch on sim is a cycle
// count.
func TestConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		backend        Backend
		tune, watchdog time.Duration
	}{
		{BackendSim, 50_000, 2_000_000},
		{BackendReal, 2 * time.Millisecond, 250 * time.Millisecond},
	} {
		want := Config{Backend: tc.backend, Cores: 1, PipelineDepth: 5, StreamCapacity: 3,
			TuneEpoch: tc.tune, WatchdogEpochs: 3, WatchdogEpoch: tc.watchdog}
		if got := (Config{Backend: tc.backend}).withDefaults(); got != want {
			t.Errorf("backend %d defaults:\n got %+v\nwant %+v", tc.backend, got, want)
		}
		if got := (Config{Backend: tc.backend, PipelineDepth: 2}).withDefaults().StreamCapacity; got != 2 {
			t.Errorf("backend %d: StreamCapacity %d, want clamped to PipelineDepth 2", tc.backend, got)
		}
	}
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Autotune: true, TuneEpoch: 25_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := app.eng.tu.epoch; got != 25_000 {
		t.Errorf("sim TuneEpoch 25_000: tuner epoch %d cycles, want 25000", got)
	}
}
