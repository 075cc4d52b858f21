package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
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
// degrade, a watchdog stall), with the tracer and the telemetry
// histograms both attached.
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
	// then the fault event degrades blur -> copy. The event is delivered
	// PipelineDepth iterations after frame 3, so frames 3-6 are holes
	// and frame 7 runs the copy. The backoff outlasts three of the
	// shortened watchdog epochs, so the run also stalls.
	{"fallback.xml", hinch.Config{Cores: 2, PipelineDepth: 3, WatchdogEpoch: 400_000,
		Faults: &hinch.SeededFaults{Task: "bh", From: 3}}, func(t *testing.T) (*graph.Program, int) {
		return specProg(t, "fallback.xml"), 8
	}},
	{"autotune.xml", hinch.Config{Cores: 4}, func(t *testing.T) (*graph.Program, int) {
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

// runSimCase runs the named simTraceCases entry on the sim backend,
// workless, with tr and the telemetry histograms attached.
func runSimCase(t *testing.T, name string, tr hinch.Tracer) *hinch.Report {
	t.Helper()
	for _, c := range simTraceCases {
		if c.name != name {
			continue
		}
		prog, frames := c.build(t)
		cfg := c.cfg
		cfg.Backend, cfg.Workless = hinch.BackendSim, true
		cfg.Tracer, cfg.Telemetry = tr, true
		app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := app.Run(frames)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rep
	}
	t.Fatalf("no sim trace case %q", name)
	return nil
}

var updateSimTrace = flag.Bool("update", false, "rewrite testdata/sim_trace.sha256 and testdata/sim_report.golden (only ever from a commit whose sim output is known good)")

// tuneCounts keeps the golden's rows of the deleted runtime width search.
var tuneCounts = map[string]int{"epochs": 0, "shrink": 0, "widen": 0}

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
	v := map[string]any{
		"outcome": rep.Outcome, "iterations": rep.Iterations, "cycles": rep.Cycles,
		"cycles_per_iteration": rep.CyclesPerIteration(), "utilisation": rep.Utilisation(),
		"wall_ns": rep.Wall, "jobs": rep.Jobs, "cores": rep.Cores,
		"reconfigs": rep.Reconfigs, "reconfig_stall": rep.ReconfigStall, "events_emitted": rep.Events,
		"faults": rep.Faults, "retries": rep.Retries, "degradations": rep.Degradations,
		"sched": rep.Sched, "tune": tuneCounts, "cache": rep.Cache, "core_busy": rep.CoreBusy,
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
		rec := trace.New(1 << 13) // sim records everything on shard 0; the largest case has ~3200 events
		rep := runSimCase(t, c.name, rec)
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
		checkPerfetto(t, c.name, perfetto.Bytes())
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
		case hinch.TraceStealHit, hinch.TracePark, hinch.TraceUnpark:
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

// perfettoFile is a decoded Perfetto export. The pointer fields tell a
// missing key from a zero value.
type perfettoFile struct {
	TraceEvents []struct {
		Name *string        `json:"name"`
		Ph   string         `json:"ph"`
		TS   *float64       `json:"ts"`
		Dur  *float64       `json:"dur"`
		PID  *int           `json:"pid"`
		TID  *int           `json:"tid"`
		ID   string         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]any `json:"otherData"`
}

// knownPhases are the trace-event phase types Perfetto loads.
var knownPhases = map[string]bool{
	"B": true, "E": true, "X": true, "i": true, "I": true, "C": true, "M": true,
	"s": true, "t": true, "f": true, "b": true, "e": true, "n": true,
}

// checkPerfetto decodes a Perfetto export and checks the rules every
// export keeps, tail dumps included: each event has a known phase and
// a name, ts, pid and tid; ts and dur are non-negative and every "X"
// has a dur; "C" events carry args and "M" events args.name; every "f"
// finishes an open "s" of its id and no "s" is left open; and there is
// at least one "X" and one "M".
func checkPerfetto(t *testing.T, what string, data []byte) perfettoFile {
	t.Helper()
	var f perfettoFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: not valid JSON: %v", what, err)
	}
	phases := map[string]int{}
	open := map[string]int{} // flow id -> starts not yet finished
	for i, ev := range f.TraceEvents {
		bad := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: traceEvents[%d] (ph %q): %s", what, i, ev.Ph, fmt.Sprintf(format, args...))
		}
		switch {
		case !knownPhases[ev.Ph]:
			bad("unknown phase")
		case ev.Name == nil || ev.TS == nil || ev.PID == nil || ev.TID == nil:
			bad("missing name, ts, pid or tid")
		case *ev.TS < 0:
			bad("negative ts %v", *ev.TS)
		case ev.Ph == "X" && ev.Dur == nil:
			bad("complete slice without dur")
		case ev.Dur != nil && *ev.Dur < 0:
			bad("negative dur %v", *ev.Dur)
		case ev.Ph == "C" && len(ev.Args) == 0:
			bad("counter without args")
		case ev.Ph == "M" && ev.Args["name"] == nil:
			bad("metadata without args.name")
		case ev.Ph == "s" && ev.ID == "":
			bad("flow start without id")
		case ev.Ph == "f" && open[ev.ID] == 0:
			bad("flow finish %q without an open start", ev.ID)
		}
		phases[ev.Ph]++
		switch ev.Ph {
		case "s":
			open[ev.ID]++
		case "f":
			open[ev.ID]--
		}
	}
	for id, n := range open {
		if n != 0 {
			t.Fatalf("%s: flow %q has %d unmatched starts", what, id, n)
		}
	}
	if phases["X"] == 0 || phases["M"] == 0 {
		t.Fatalf("%s: %d complete slices and %d metadata events, want both", what, phases["X"], phases["M"])
	}
	return f
}

// TestPerfettoExportShape checks a real-backend export against the
// trace-event rules, and that metadata names every track, job slices
// land on worker tracks and the clock is wall time.
func TestPerfettoExportShape(t *testing.T) {
	rec := trace.New(1 << 16)
	runTraced(t, hinch.Config{
		Backend: hinch.BackendReal, Cores: 3, PipelineDepth: 5, Workless: true,
	}, rec)
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	out := checkPerfetto(t, "real export", buf.Bytes())
	tracks := map[int]bool{}
	counters := 0
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			if *ev.Name == "thread_name" {
				tracks[*ev.TID] = true
			}
		case "X":
			if *ev.TID < 0 || *ev.TID > 3 {
				t.Fatalf("slice %q on unknown track %d", *ev.Name, *ev.TID)
			}
		case "C":
			counters++
		}
	}
	for tid := 0; tid <= 3; tid++ { // 3 workers + runtime track
		if !tracks[tid] {
			t.Errorf("no thread_name metadata for track %d", tid)
		}
	}
	if counters == 0 {
		t.Fatal("export has no counters")
	}
	if clock := out.OtherData["clock"]; clock != "wall-ns" {
		t.Errorf("otherData.clock = %v on the real backend", clock)
	}
}

// cutTracer records only the first n events of a run: exporting it
// shows what a /debug/trace dump taken at that instant sees.
type cutTracer struct {
	*trace.Recorder
	n int
}

func (c *cutTracer) Emit(shard int, ev hinch.TraceEvent) {
	if c.n > 0 {
		c.n--
		c.Recorder.Emit(shard, ev)
	}
}

// TestPerfettoTailShape: flight-recorder tails keep the trace-event
// rules. The fallback.xml run is cut just after its degrade event, so
// the halt that fault triggers lies beyond the dump and the fault's
// flow arrow must be left out; the full recording's tails then cut
// through reconfigurations at several small lengths.
func TestPerfettoTailShape(t *testing.T) {
	full := trace.New(1 << 13)
	runSimCase(t, "fallback.xml", full)
	cut := -1
	for i, ev := range full.Events(0) { // sim records everything on shard 0
		if ev.Kind == hinch.TraceDegrade {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("fallback.xml recorded no degrade event")
	}
	dump := &cutTracer{Recorder: trace.New(1 << 13), n: cut}
	runSimCase(t, "fallback.xml", dump)
	for _, c := range []struct {
		rec  *trace.Recorder
		last int
	}{{dump.Recorder, 32}, {full, 16}, {full, 64}, {full, 256}} {
		var buf bytes.Buffer
		if err := c.rec.WritePerfettoTail(&buf, c.last); err != nil {
			t.Fatal(err)
		}
		checkPerfetto(t, fmt.Sprintf("tail of %d of %d events", c.last, c.rec.Total()), buf.Bytes())
	}
}

// TestBusyProfile checks the busy-worker profile on a hand-built
// two-worker recording with known overlaps: over [0, 100), worker 0
// runs [10, 40) and [40, 70), worker 1 runs [30, 50) and [60, 90).
func TestBusyProfile(t *testing.T) {
	rec := trace.New(8)
	rec.Begin(hinch.TraceMeta{Cores: 2, Wall: true})
	span := func(w int, from, to int64) {
		rec.Emit(w+1, hinch.TraceEvent{Kind: hinch.TraceJobSpan, TS: from, Arg: to - from, Worker: int32(w), Iter: -1, ID: 0})
	}
	span(0, 10, 40)
	span(0, 40, 70)
	span(1, 30, 50)
	span(1, 60, 90)
	rec.Emit(0, hinch.TraceEvent{Kind: hinch.TraceIterRetire, TS: 95, Worker: -1, Arg: 1})

	// Busy levels: 0 on [0,10) and [90,100); 1 on [10,30), [50,60) and
	// [70,90); 2 on [30,50) and [60,70).
	check := func(end int64, want []float64) {
		t.Helper()
		got := trace.BusyProfile(rec, end)
		if len(got) != len(want) {
			t.Fatalf("end %d: profile %v, want %v", end, got, want)
		}
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-12 {
				t.Fatalf("end %d: profile %v, want %v", end, got, want)
			}
		}
	}
	check(100, []float64{0.20, 0.50, 0.30})
	check(0, []float64{10.0 / 90, 50.0 / 90, 30.0 / 90}) // ends at the last span

	// Overflow worker 0's ring of 8 with eight spans [100,105) ...
	// [170,175): its two old spans are dropped, so the profile starts
	// at 100. Over [100,180) worker 1 is idle and worker 0 busy 40 of 80.
	for i := int64(0); i < 8; i++ {
		span(0, 100+i*10, 105+i*10)
	}
	check(180, []float64{0.5, 0.5, 0})
}
