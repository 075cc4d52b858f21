package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
	"xspcl/internal/xspcl"
)

// blurVariant is a reduced-scale reconfigurable Blur-35: it exercises
// every trace event class — components, manager entry/exit, option
// skips, event pushes/drains and full reconfiguration cycles.
func blurVariant() *apps.Variant {
	cfg := apps.DefaultBlur(3)
	cfg.Frames = 24
	cfg.Reconfig = true
	cfg.Every = 8
	return apps.NewBlurVariant("Blur-35", cfg)
}

func runTraced(t *testing.T, cfg hinch.Config, rec *trace.Recorder) *hinch.Report {
	t.Helper()
	cfg.Tracer = rec
	rep, _, err := blurVariant().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// kindCount tallies one event kind across all shards.
func kindCount(rec *trace.Recorder, kind hinch.TraceKind) int {
	n := 0
	for si := 0; si < rec.Shards(); si++ {
		for _, ev := range rec.Events(si) {
			if ev.Kind == kind {
				n++
			}
		}
	}
	return n
}

// TestTraceInvariantsSim checks the recorded trace against the report
// on the sim backend — spans tile the cores without overlap and every
// Report counter equals its event count (trace.Validate) — and that
// every lifecycle class was recorded.
func TestTraceInvariantsSim(t *testing.T) {
	rec := trace.New(1 << 16)
	rep := runTraced(t, apps.SimConfig(4, apps.RunOptions{Workless: true}), rec)
	if err := trace.Validate(rec, rep); err != nil {
		t.Fatal(err)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("dropped %d events with an oversized ring", d)
	}
	// Blur-35 always has one of the two kernel options disabled, so
	// skips must appear; reconfigurations must record all three phases.
	for _, k := range []hinch.TraceKind{
		hinch.TraceJobSpan, hinch.TraceJobSkip,
		hinch.TraceIterLaunch, hinch.TraceIterRetire,
		hinch.TraceStreamAcquire, hinch.TraceStreamRelease,
		hinch.TraceEventPush, hinch.TraceEventDrain,
		hinch.TraceReconfigHalt, hinch.TraceReconfigApply, hinch.TraceReconfigResume,
	} {
		if kindCount(rec, k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
}

// TestTraceInvariantsReal checks the same invariants on the real
// backend, where spans carry wall timestamps from per-worker shards
// and the folded scheduler counters must agree with the trace too.
func TestTraceInvariantsReal(t *testing.T) {
	rec := trace.New(1 << 16)
	rep := runTraced(t, hinch.Config{
		Backend: hinch.BackendReal, Cores: 4, PipelineDepth: 5, Workless: true,
	}, rec)
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("dropped %d events with an oversized ring", d)
	}
	if err := trace.Validate(rec, rep); err != nil {
		t.Fatal(err)
	}
	if kindCount(rec, hinch.TraceJobSpan) == 0 {
		t.Error("no job spans recorded")
	}
}

// simTraceCases are the runs TestSimTraceDeterministic pins: between
// them they emit every TraceKind the sim backend can produce
// (reconfiguration phases, event push/drain, skips, retry/fault/
// degrade, tuner resizes, a watchdog stall), with the tracer and the
// telemetry histograms both attached.
var simTraceCases = []struct {
	name  string
	cfg   hinch.Config
	build func(t *testing.T) (*graph.Program, int)
}{
	{"Blur-35", hinch.Config{Cores: 4}, func(t *testing.T) (*graph.Program, int) {
		return variantProg(t, blurVariant())
	}},
	{"PiP-12", hinch.Config{Cores: 4}, func(t *testing.T) (*graph.Program, int) {
		cfg := apps.DefaultPiP(1)
		cfg.W, cfg.H, cfg.Slices, cfg.Frames = 192, 160, 4, 24
		cfg.Reconfig, cfg.Every = true, 8
		return variantProg(t, apps.NewPiPVariant("PiP-12", cfg))
	}},
	{"JPiP-1", hinch.Config{Cores: 3}, func(t *testing.T) (*graph.Program, int) {
		cfg := apps.DefaultJPiP(1)
		cfg.W, cfg.H, cfg.Factor, cfg.Slices, cfg.Frames = 320, 192, 4, 6, 6
		return variantProg(t, apps.NewJPiPVariant("JPiP-1", cfg))
	}},
	// Every bh attempt from frame 3 on fails: two retries with backoff,
	// then the fault event degrades blur -> copy. The backoff outlasts
	// three of the shortened watchdog epochs, so the run also stalls.
	{"fallback.xml", hinch.Config{Cores: 2, WatchdogEpoch: 400_000,
		Faults: &hinch.SeededFaults{Task: "bh", From: 3}}, func(t *testing.T) (*graph.Program, int) {
		return specProg(t, "fallback.xml"), 8
	}},
	{"autotune.xml", hinch.Config{Cores: 4, Autotune: true, TuneEpoch: 2_000_000}, func(t *testing.T) (*graph.Program, int) {
		return specProg(t, "autotune.xml"), 64
	}},
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
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xspcl.Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

var updateSimTrace = flag.Bool("update", false, "rewrite testdata/sim_trace.sha256 and testdata/sim_report.golden (only ever from a commit whose sim output is known good)")

// pinnedView derives, from a Report, every value in the layout the
// report had when testdata/sim_report.golden was generated: stage rows
// carry their service-time quantiles and only stages with samples have
// one, the iteration-latency row is named "iteration", the cache keys
// are the cache's own, and per-class work is a map.
func pinnedView(rep *hinch.Report) map[string]any {
	lat := func(name string, jobs int64, h hinch.HistSnap) map[string]any {
		return map[string]any{"name": name, "jobs": jobs, "max": h.Max,
			"p50": h.Quantile(0.50), "p95": h.Quantile(0.95), "p99": h.Quantile(0.99)}
	}
	var stages []any
	for _, s := range rep.Stages {
		if s.Svc.Count > 0 {
			stages = append(stages, lat(s.Name, s.Jobs, s.Svc))
		}
	}
	var tune hinch.TuneStats
	if rep.Tune != nil {
		tune = rep.Tune.Stats
	}
	v := map[string]any{
		"outcome": rep.Outcome, "iterations": rep.Iterations, "cycles": rep.Cycles,
		"cycles_per_iteration": rep.CyclesPerIteration(), "utilisation": rep.Utilisation(),
		"wall_ns": rep.Wall, "jobs": rep.Jobs, "cores": rep.Cores,
		"reconfigs": rep.Reconfigs, "reconfig_stall": rep.ReconfigStall, "events_emitted": rep.Events,
		"faults": rep.Faults, "retries": rep.Retries, "degradations": rep.Degradations,
		"sched": rep.Sched, "tune": tune, "cache": rep.Cache, "core_busy": rep.CoreBusy,
		"per_class": rep.PerClass(), "stages": stages,
		"iter_latency": lat("iteration", rep.IterLat.Count, *rep.IterLat),
	}
	if rep.Stalls != 0 {
		v["stalls"] = rep.Stalls
	}
	return v
}

// reportLines flattens pinnedView's JSON into one "case path value"
// line per leaf, sorted by path. Array elements that carry a name are
// keyed by it (stages[bh].p95), others by index (core_busy[0]).
func reportLines(t *testing.T, name string, rep *hinch.Report) []string {
	t.Helper()
	js, err := json.Marshal(pinnedView(rep))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(js))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			for i, e := range v {
				key := fmt.Sprint(i)
				if m, ok := e.(map[string]any); ok && m["name"] != nil {
					key = fmt.Sprint(m["name"])
				}
				walk(path+"["+key+"]", e)
			}
		default:
			lines = append(lines, fmt.Sprintf("%s %s %v", name, path, v))
		}
	}
	walk("", v)
	sort.Strings(lines)
	return lines
}

// TestSimTraceDeterministic pins the sim backend's observable output
// across commits, not just across runs: for each case the SHA-256 of
// the Perfetto export alone, and of the export followed by the JSON
// report, must equal the digests recorded in testdata/sim_trace.sha256,
// and every value of the report — counters, per-class work, per-stage
// and iteration-latency quantiles — must equal its line in
// testdata/sim_report.golden. Virtual-cycle timestamps and the
// recorder's total event order make the bytes a pure function of the
// program and the config.
func TestSimTraceDeterministic(t *testing.T) {
	const golden, reportGolden = "testdata/sim_trace.sha256", "testdata/sim_report.golden"
	want := map[string]string{}
	wantReport, err := os.ReadFile(reportGolden)
	if data, err2 := os.ReadFile(golden); err == nil && err2 == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if sum, name, ok := strings.Cut(line, "  "); ok {
				want[name] = sum
			}
		}
	} else if !*updateSimTrace {
		t.Fatal(errors.Join(err, err2))
	}
	seen := map[hinch.TraceKind]bool{}
	var out, report strings.Builder
	for _, c := range simTraceCases {
		prog, frames := c.build(t)
		rec := trace.New(1 << 13) // sim records everything on shard 0; the largest case has ~3200 events
		cfg := c.cfg
		cfg.Backend, cfg.Workless = hinch.BackendSim, true
		cfg.Tracer, cfg.Telemetry = rec, true
		app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep, err := app.Run(frames)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d events: %s", c.name, rec.Total(), strings.SplitN(rep.String(), "\n", 2)[0])
		if d := rec.Dropped(); d != 0 {
			t.Fatalf("%s: dropped %d events", c.name, d)
		}
		if err := trace.Validate(rec, rep); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		for si := 0; si < rec.Shards(); si++ {
			for _, ev := range rec.Events(si) {
				seen[ev.Kind] = true
			}
		}
		var perfetto bytes.Buffer
		if err := rec.WritePerfetto(&perfetto); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct{ key, what, sum string }{
			{c.name + ".perfetto", "trace", digest(perfetto.Bytes())},
			{c.name, "trace+report", digest(perfetto.Bytes(), js)},
		} {
			fmt.Fprintf(&out, "%s  %s\n", d.sum, d.key)
			if !*updateSimTrace && d.sum != want[d.key] {
				t.Errorf("%s: %s digest %s, want %s (the sim backend's output changed)", c.name, d.what, d.sum, want[d.key])
			}
		}
		for _, l := range reportLines(t, c.name, rep) {
			report.WriteString(l + "\n")
		}
	}
	if got := report.String(); !*updateSimTrace && got != string(wantReport) {
		for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
			if !strings.Contains("\n"+string(wantReport), "\n"+l+"\n") {
				t.Errorf("report line %q not in %s", l, reportGolden)
			}
		}
		t.Errorf("report values differ from %s", reportGolden)
	}
	for k := hinch.TraceJobEnqueue; k <= hinch.TraceStall; k++ {
		switch k {
		case hinch.TraceStealHit, hinch.TraceGlobalPop, hinch.TracePark, hinch.TraceUnpark, hinch.TraceBatch:
			continue // work-stealing scheduler: real backend only
		}
		if !seen[k] {
			t.Errorf("no %v event in any pinned run", k)
		}
	}
	if *updateSimTrace {
		if err := os.WriteFile(golden, []byte(out.String()), 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGolden, []byte(report.String()), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// digest is the hex SHA-256 of the concatenated parts.
func digest(parts ...[]byte) string {
	sum := sha256.Sum256(bytes.Join(parts, nil))
	return hex.EncodeToString(sum[:])
}

// TestRingOverflow checks flight-recorder semantics: a tiny ring drops
// the oldest events but the export stays valid and Validate still
// accepts the trace (the count cross-check only applies to complete
// recordings).
func TestRingOverflow(t *testing.T) {
	rec := trace.New(64)
	rep := runTraced(t, apps.SimConfig(2, apps.RunOptions{Workless: true}), rec)
	if rec.Dropped() == 0 {
		t.Fatal("expected drops with a 64-event ring")
	}
	if err := trace.Validate(rec, rep); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if d, _ := out.OtherData["events_dropped"].(float64); int64(d) != rec.Dropped() {
		t.Errorf("otherData.events_dropped = %v, recorder dropped = %d", out.OtherData["events_dropped"], rec.Dropped())
	}
}

// TestRecorderReuse checks Begin resets the rings in place so one
// recorder can serve many runs.
func TestRecorderReuse(t *testing.T) {
	rec := trace.New(1 << 16)
	rep1 := runTraced(t, apps.SimConfig(4, apps.RunOptions{Workless: true}), rec)
	first := rec.Total()
	rep2 := runTraced(t, apps.SimConfig(4, apps.RunOptions{Workless: true}), rec)
	if rec.Total() != first {
		t.Errorf("reused recorder holds %d events, first run recorded %d", rec.Total(), first)
	}
	if err := trace.Validate(rec, rep2); err != nil {
		t.Fatal(err)
	}
	if rep1.Jobs != rep2.Jobs {
		t.Errorf("identical runs executed %d vs %d jobs", rep1.Jobs, rep2.Jobs)
	}
}

// TestPerfettoExportShape decodes the export and spot-checks the
// trace-event schema: metadata names every track, job slices land on
// worker tracks, and counters carry their value args.
func TestPerfettoExportShape(t *testing.T) {
	rec := trace.New(1 << 16)
	runTraced(t, hinch.Config{
		Backend: hinch.BackendReal, Cores: 3, PipelineDepth: 5, Workless: true,
	}, rec)
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	tracks := map[int]bool{}
	slices, counters := 0, 0
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.TID] = true
			}
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("slice %q without valid dur", ev.Name)
			}
			if ev.TID < 0 || ev.TID > 3 {
				t.Fatalf("slice %q on unknown track %d", ev.Name, ev.TID)
			}
			slices++
		case "C":
			if len(ev.Args) == 0 {
				t.Fatalf("counter %q without args", ev.Name)
			}
			counters++
		}
	}
	for tid := 0; tid <= 3; tid++ { // 3 workers + runtime track
		if !tracks[tid] {
			t.Errorf("no thread_name metadata for track %d", tid)
		}
	}
	if slices == 0 || counters == 0 {
		t.Fatalf("export has %d slices and %d counters", slices, counters)
	}
	if clock := out.OtherData["clock"]; clock != "wall-ns" {
		t.Errorf("otherData.clock = %v on the real backend", clock)
	}
}
