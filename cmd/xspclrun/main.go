// Command xspclrun loads an XSPCL specification onto the Hinch runtime
// and executes it.
//
//	xspclrun -backend sim -cores 4 -frames 96 app.xml
//	xspclrun -builtin JPiP-2 -cores 9
//
// On the sim backend it reports virtual cycles on the simulated
// SpaceCAKE tile; on the real backend it reports wall-clock time using
// worker goroutines. The -cpuprofile and -memprofile flags write pprof
// profiles of the run (most useful with -backend real).
//
// The -trace flag attaches the flight recorder and writes the run as
// Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev), and
// prints the run's busy-worker profile: the share of the run during
// which 0, 1, ..., cores workers were inside a job. -report json prints
// the Report as JSON instead of the compact summary.
//
// The -inject-faults flag attaches a deterministic fault injector, for
// exercising failure policies and degradation paths:
//
//	xspclrun -builtin JPiP-FT -inject-faults seed=1,task=jdec,from=8
//
// Components marked replicate="auto" run at the replica width the
// prediction model resolves when the program loads (predict.AutoWidths,
// the same rule xspclvet -predict prints), and the stream capacity
// grows by one buffer set per replica beyond the first; -report json
// shows each stage's width and the capacity:
//
//	xspclrun -backend sim -cores 4 -report json examples/specs/autotune.xml
//
// The -http flag enables live telemetry and serves the ops surface
// (/metrics, /statusz, /healthz, /debug/pprof, /debug/trace) on the
// given address while the run executes:
//
//	xspclrun -builtin Blur-35 -backend real -cores 4 -http :8080
//
// The -watch flag enables telemetry and redraws a live per-stage
// dashboard on stderr while the run executes (xspcltop offers the same
// view against a remote -http address).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
	"xspcl/internal/obs"
	"xspcl/internal/profiling"
	"xspcl/internal/xspcl"
)

func main() {
	cores := flag.Int("cores", 1, "simulated cores / worker goroutines")
	frames := flag.Int("frames", 0, "iterations to run (0 = variant default or until EOS)")
	pipeline := flag.Int("pipeline", 5, "concurrently active iterations")
	backend := flag.String("backend", "sim", "execution backend: sim or real")
	builtin := flag.String("builtin", "", "run a built-in paper application (e.g. Blur-35)")
	workless := flag.Bool("workless", false, "skip kernel computation (sim cost accounting only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "record a flight-recorder trace and write Perfetto JSON to this file")
	report := flag.String("report", "text", "report format: text or json")
	inject := flag.String("inject-faults", "", `inject deterministic faults, e.g. "seed=1,task=jdec,from=8" (see hinch.ParseFaultSpec)`)
	httpAddr := flag.String("http", "", "serve the live ops surface (/metrics, /statusz, /healthz, pprof, /debug/trace) on this address; implies telemetry")
	watch := flag.String("watch", "", "redraw a live dashboard on stderr at this interval (e.g. 500ms); implies telemetry")
	flag.Parse()

	var watchEvery time.Duration
	if *watch != "" {
		var err error
		watchEvery, err = time.ParseDuration(*watch)
		if err != nil || watchEvery <= 0 {
			fail(fmt.Errorf("bad -watch interval %q", *watch))
		}
	}
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	if err := run(*cores, *frames, *pipeline, *backend, *builtin, *workless, *traceOut, *report, *inject, *httpAddr, watchEvery); err != nil {
		stop()
		fail(err)
	}
	if err := stop(); err != nil {
		fail(err)
	}
}

func run(cores, frames, pipeline int, backend, builtin string, workless bool, traceOut, report, inject, httpAddr string, watchEvery time.Duration) error {
	cfg := hinch.Config{Cores: cores, PipelineDepth: pipeline, Workless: workless,
		Telemetry: httpAddr != "" || watchEvery > 0}
	switch backend {
	case "sim":
		cfg.Backend = hinch.BackendSim
	case "real":
		cfg.Backend = hinch.BackendReal
	default:
		return fmt.Errorf("unknown backend %q", backend)
	}
	if inject != "" {
		faults, err := hinch.ParseFaultSpec(inject)
		if err != nil {
			return err
		}
		cfg.Faults = faults
	}

	var src string
	iters := frames
	if builtin != "" {
		v, err := apps.VariantByName(builtin)
		if err != nil {
			return err
		}
		src = v.XML
		if iters == 0 {
			iters = v.Frames
		}
	} else {
		if flag.NArg() != 1 {
			return fmt.Errorf("usage: xspclrun [flags] <spec.xml> (or -builtin <name>)")
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	}

	prog, err := xspcl.Load(src)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if traceOut != "" || httpAddr != "" {
		// -http attaches the flight recorder too, so /debug/trace can
		// dump the black-box tail of a live run.
		rec = trace.New(0)
		cfg.Tracer = rec
	}
	app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
	if err != nil {
		return err
	}
	if httpAddr != "" {
		sv, err := obs.Start(httpAddr, obs.NewServer(app, rec).Handler())
		if err != nil {
			return err
		}
		defer sv.Stop(2 * time.Second)
		fmt.Fprintf(os.Stderr, "ops surface on http://%s/\n", sv.Addr())
	}
	var watchDone chan struct{}
	if watchEvery > 0 {
		watchDone = make(chan struct{})
		go watchLoop(app, watchEvery, watchDone)
	}
	// Ctrl-C cancels the run instead of killing the process: the
	// pipeline drains, the partial report prints (outcome=cancelled),
	// and profiles/traces still flush. A second Ctrl-C kills.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	rep, err := app.RunContext(ctx, iters)
	stopSignals()
	if watchDone != nil {
		close(watchDone)
	}
	if err != nil {
		return err
	}
	if rep.Outcome == hinch.OutcomeCancelled {
		fmt.Fprintln(os.Stderr, "run cancelled; partial report follows")
	}
	if rec != nil && traceOut != "" {
		// The trace must agree with the report it is written next to.
		if err := trace.Validate(rec, rep); err != nil {
			return err
		}
		if err := rec.WriteFile(traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n", rec.Total(), rec.Dropped(), traceOut)
		end := rep.Cycles
		if rec.Meta().Wall {
			end = int64(rep.Wall)
		}
		fmt.Fprintf(os.Stderr, "trace: busy workers, share of the run:")
		for k, s := range trace.BusyProfile(rec, end) {
			fmt.Fprintf(os.Stderr, "  %d: %.1f%%", k, 100*s)
		}
		fmt.Fprintln(os.Stderr)
	}
	switch report {
	case "json":
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case "text", "":
		fmt.Println(rep)
	default:
		return fmt.Errorf("unknown report format %q", report)
	}
	return nil
}

// watchLoop redraws the live dashboard on stderr until done closes,
// finishing with one last frame so the final state stays on screen.
func watchLoop(app *hinch.App, every time.Duration, done <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	draw := func() {
		fmt.Fprint(os.Stderr, "\x1b[2J\x1b[H")
		obs.RenderDashboard(os.Stderr, app.Snapshot())
	}
	for {
		select {
		case <-tick.C:
			draw()
		case <-done:
			draw()
			return
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
