package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
	"xspcl/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics scrape")

func blurVariant(frames int) *apps.Variant {
	return apps.NewBlurVariant("blur3-obs",
		apps.BlurConfig{W: 64, H: 48, Frames: frames, Slices: 4, Taps: 3, Every: 4})
}

// promParse is a minimal Prometheus text-format parser: it validates
// the line grammar (HELP/TYPE comments, name{labels} value samples) and
// returns every sample keyed by its full series string.
func promParse(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]string{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("line %d: bad comment %q", ln+1, line)
			}
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		series, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q", ln+1, val)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, series)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[name] == "" && typed[base] == "" {
			t.Fatalf("line %d: series %q has no TYPE", ln+1, name)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = v
	}
	return samples
}

func runSimApp(t *testing.T, frames int, rec *trace.Recorder) (*hinch.App, *hinch.Report) {
	t.Helper()
	v := blurVariant(frames)
	cfg := hinch.Config{Backend: hinch.BackendSim, Cores: 4, Telemetry: true}
	if rec != nil {
		cfg.Tracer = rec
	}
	app, err := v.NewApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	return app, rep
}

func TestEndpointsSim(t *testing.T) {
	rec := trace.New(0)
	app, _ := runSimApp(t, 8, rec)
	srv := httptest.NewServer(obs.NewServer(app, rec).Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz: %d", code)
	}
	var snap hinch.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/statusz does not decode: %v", err)
	}
	if !snap.Telemetry || snap.Backend != "sim" || len(snap.Stages) == 0 {
		t.Fatalf("statusz snapshot %+v", snap)
	}
	if snap.Retired != 8 || snap.Inflight != 0 {
		t.Fatalf("statusz progress %+v", snap)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	samples := promParse(t, body)
	if got := samples["xspcl_jobs_total"]; got != float64(snap.Jobs) {
		t.Fatalf("xspcl_jobs_total = %v, snapshot says %d", got, snap.Jobs)
	}
	if samples["xspcl_iterations_retired_total"] != 8 {
		t.Fatalf("retired total %v", samples["xspcl_iterations_retired_total"])
	}
	// Histogram invariant: the +Inf bucket equals the count.
	for series, v := range samples {
		if strings.Contains(series, `le="+Inf"`) {
			count := strings.Replace(series, "_bucket", "_count", 1)
			count = count[:strings.IndexByte(count, '{')]
			if !strings.Contains(series, "stage=") {
				if c, ok := samples[count]; ok && c != v {
					t.Fatalf("%s = %v but %s = %v", series, v, count, c)
				}
			}
		}
	}

	code, body = get("/debug/trace?last=500")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace tail not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace tail empty")
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	code, _ = get("/debug/trace?last=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bad last: %d", code)
	}
}

func TestTraceTail404WithoutRecorder(t *testing.T) {
	app, _ := runSimApp(t, 4, nil)
	srv := httptest.NewServer(obs.NewServer(app, nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestMetricsGoldenSim(t *testing.T) {
	// The live snapshot after the run and the report's final one render
	// the same scrape.
	scrape := func() string {
		app, rep := runSimApp(t, 8, nil)
		var live, final bytes.Buffer
		obs.RenderMetrics(&live, app.Snapshot())
		obs.RenderMetrics(&final, rep.Snapshot)
		if live.String() != final.String() {
			t.Fatalf("report scrape differs from the live one:\n%s\n---\n%s", final.String(), live.String())
		}
		return live.String()
	}
	m1, m2 := scrape(), scrape()
	if m1 != m2 {
		t.Fatalf("sim metrics scrape not deterministic:\n%s\n---\n%s", m1, m2)
	}
	golden := filepath.Join("testdata", "metrics_sim.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(m1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if m1 != string(want) {
		t.Fatalf("metrics scrape drifted from golden (re-run with -update if intended):\n%s", m1)
	}
}

func TestEndpointsRealMidRunAndStall(t *testing.T) {
	v := blurVariant(8)
	app, err := v.NewApp(hinch.Config{
		Backend: hinch.BackendReal, Cores: 4, Telemetry: true,
		WatchdogEpoch: 2 * time.Millisecond,
		Faults:        &hinch.SeededFaults{From: 5, Task: "snk", Kind: hinch.FaultDelay, Delay: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.NewServer(app, nil).Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := app.Run(v.Frames)
		done <- err
	}()

	// The delayed sink stalls retirement for 150ms per frame from frame
	// 5 on; the 2ms watchdog must flip /healthz to 503 in that window.
	saw503 := false
	sawLive := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
		}
		sr, err := http.Get(srv.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var snap hinch.Snapshot
		derr := json.NewDecoder(sr.Body).Decode(&snap)
		sr.Body.Close()
		if derr != nil {
			t.Fatalf("mid-run statusz: %v", derr)
		}
		if snap.Inflight > 0 {
			sawLive = true
		}
		if saw503 {
			break
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			done <- nil
			deadline = time.Now() // run over; stop polling
		default:
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !saw503 {
		t.Fatal("never observed a 503 /healthz during the injected stall")
	}
	if !sawLive {
		t.Fatal("never observed in-flight iterations mid-run")
	}

	// After the run every endpoint still serves.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	samples := promParse(t, buf.String())
	if samples["xspcl_stalls_total"] < 1 {
		t.Fatalf("stalls_total %v, want >= 1", samples["xspcl_stalls_total"])
	}
	if samples["xspcl_iterations_retired_total"] != 8 {
		t.Fatalf("retired %v", samples["xspcl_iterations_retired_total"])
	}
}

func TestDashboardRenders(t *testing.T) {
	app, _ := runSimApp(t, 8, nil)
	var buf bytes.Buffer
	obs.RenderDashboard(&buf, app.Snapshot())
	out := buf.String()
	for _, want := range []string{"xspcl sim", "STAGE", "WINDOW 0/3 buffer sets held, high-water 3", "snk", "iter latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "health=STALLED") {
		t.Fatalf("healthy run rendered stalled:\n%s", out)
	}
}

// TestDashboardFullWindowFillsBar: the window bar is drawn against the
// stream capacity, so a window holding all its sets fills every cell
// and an empty one none.
func TestDashboardFullWindowFillsBar(t *testing.T) {
	for _, c := range []struct {
		held int
		want string
	}{
		{3, "WINDOW 3/3 buffer sets held, high-water 3  [" + strings.Repeat("#", 20) + "]"},
		{0, "WINDOW 0/3 buffer sets held, high-water 3  [" + strings.Repeat(".", 20) + "]"},
	} {
		var buf bytes.Buffer
		obs.RenderDashboard(&buf, hinch.Snapshot{StreamCap: 3, Occupancy: c.held, HighWater: 3})
		if !strings.Contains(buf.String(), c.want+"\n") {
			t.Errorf("%d of 3 sets held: dashboard lacks %q:\n%s", c.held, c.want, buf.String())
		}
	}
}
