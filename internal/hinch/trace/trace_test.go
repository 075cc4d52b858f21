package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"xspcl/internal/apps"
	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
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
// on the sim backend: spans tile the cores without overlap, the span
// count matches Report.Jobs, and every lifecycle class was recorded.
func TestTraceInvariantsSim(t *testing.T) {
	rec := trace.New(1 << 16)
	rep := runTraced(t, apps.SimConfig(4, apps.RunOptions{Workless: true}), rec)
	if err := trace.Validate(rec, rep); err != nil {
		t.Fatal(err)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("dropped %d events with an oversized ring", d)
	}
	if got := int64(kindCount(rec, hinch.TraceJobSpan)); got != rep.Jobs {
		t.Errorf("job spans = %d, report jobs = %d", got, rep.Jobs)
	}
	// Blur-35 always has one of the two kernel options disabled, so
	// skips must appear; reconfigurations must record all three phases.
	if kindCount(rec, hinch.TraceJobSkip) == 0 {
		t.Error("no skip events for a variant with disabled options")
	}
	for _, k := range []hinch.TraceKind{
		hinch.TraceIterLaunch, hinch.TraceIterRetire,
		hinch.TraceStreamAcquire, hinch.TraceStreamRelease,
		hinch.TraceEventPush, hinch.TraceEventDrain,
		hinch.TraceReconfigHalt, hinch.TraceReconfigApply, hinch.TraceReconfigResume,
	} {
		if kindCount(rec, k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	if got, want := kindCount(rec, hinch.TraceIterRetire), rep.Iterations; got != want {
		t.Errorf("retire events = %d, iterations = %d", got, want)
	}
	if got, want := kindCount(rec, hinch.TraceReconfigApply), rep.Reconfigs; got != want {
		t.Errorf("reconfig-apply events = %d, reconfigs = %d", got, want)
	}
}

// TestTraceInvariantsReal checks the same invariants on the real
// backend, where spans carry wall timestamps from per-worker shards.
func TestTraceInvariantsReal(t *testing.T) {
	rec := trace.New(1 << 16)
	rep := runTraced(t, hinch.Config{
		Backend: hinch.BackendReal, Cores: 4, PipelineDepth: 5, Workless: true,
	}, rec)
	if err := trace.Validate(rec, rep); err != nil {
		t.Fatal(err)
	}
	if got := int64(kindCount(rec, hinch.TraceJobSpan)); got != rep.Jobs {
		t.Errorf("job spans = %d, report jobs = %d", got, rep.Jobs)
	}
	// The folded scheduler counters must agree with the trace. Steals
	// count jobs while a steal hit moves a batch, so that comparison is
	// a sum over the hits' Arg: Validate, above, makes it.
	if got, want := int64(kindCount(rec, hinch.TraceGlobalPop)), rep.Sched.GlobalPops; got != want {
		t.Errorf("global-pop events = %d, report global pops = %d", got, want)
	}
	if got, want := int64(kindCount(rec, hinch.TracePark)), rep.Sched.Parks; got != want {
		t.Errorf("park events = %d, report parks = %d", got, want)
	}
}

// TestSimTraceDeterministic runs the same program twice on the sim
// backend and requires byte-identical Perfetto exports: virtual-cycle
// timestamps and the recorder's total event order are deterministic.
func TestSimTraceDeterministic(t *testing.T) {
	export := func() []byte {
		rec := trace.New(1 << 16)
		runTraced(t, apps.SimConfig(4, apps.RunOptions{Workless: true}), rec)
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("sim traces differ across identical runs (%d vs %d bytes)", len(a), len(b))
	}
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
// recorder can serve many runs (the overhead benchmark relies on it).
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
