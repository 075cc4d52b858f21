// Package obs is the runtime's HTTP ops surface: a stdlib-only server
// exposing a running hinch.App through four endpoints plus pprof.
//
//	/metrics       Prometheus text exposition of the live Snapshot
//	/statusz       the full Snapshot as indented JSON
//	/healthz       200 while healthy; 503 once the run degraded a
//	               component or the telemetry watchdog sees no progress
//	/debug/trace   the flight recorder's tail as Perfetto JSON
//	/debug/pprof/  the standard Go profiling endpoints
//
// Everything renders from App.Snapshot, which is lock-free and safe
// mid-run, so scraping never perturbs the run. The /metrics and
// /statusz bodies are pure functions of the snapshot — on the sim
// backend (deterministic histograms) a scrape at run end is
// byte-identical across runs, which the golden tests pin.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
)

// defaultTraceTail bounds /debug/trace when no ?last=N is given.
const defaultTraceTail = 1 << 14

// Server serves the ops surface for one App. The recorder is optional;
// without it /debug/trace answers 404.
type Server struct {
	app *hinch.App
	rec *trace.Recorder
}

// NewServer wraps app (and its flight recorder, may be nil) for
// serving.
func NewServer(app *hinch.App, rec *trace.Recorder) *Server {
	return &Server{app: app, rec: rec}
}

// Handler returns the ops mux. Mount it on any listener; all handlers
// are safe while the App runs.
func (s *Server) Handler() http.Handler {
	mux := newMux("xspcl ops surface\n\n/metrics\n/statusz\n/healthz\n/debug/trace?last=N\n/debug/pprof/\n",
		func(w io.Writer) { RenderMetrics(w, s.app.Snapshot()) },
		func() any { return s.app.Snapshot() },
		s.healthz)
	mux.HandleFunc("/debug/trace", s.trace)
	return mux
}

// newMux builds what the app and supervisor surfaces share: /metrics
// (Prometheus text from render), /statusz (status() as indented JSON),
// /healthz, the pprof endpoints, and an index page at "/".
func newMux(index string, render func(io.Writer), status func() any, healthz http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		render(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(status())
	})
	mux.HandleFunc("/healthz", healthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, index)
	})
	return mux
}

// counter and gauge write one unlabelled Prometheus sample with its
// HELP and TYPE lines.
func counter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.app.Snapshot()
	if snap.Degradations > 0 || snap.Stalled {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: degradations=%d stalled=%v stalls=%d\n",
			snap.Degradations, snap.Stalled, snap.Stalls)
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.Error(w, "no flight recorder attached (run with tracing enabled)", http.StatusNotFound)
		return
	}
	last := defaultTraceTail
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "last must be a positive integer", http.StatusBadRequest)
			return
		}
		last = n
	}
	w.Header().Set("Content-Type", "application/json")
	s.rec.WritePerfettoTail(w, last)
}

// RenderMetrics writes the snapshot in the Prometheus text exposition
// format. The output is a pure function of the snapshot: stages render
// in pipeline order and histogram buckets use the fixed log2 bounds,
// so sim-backend scrapes are deterministic.
func RenderMetrics(w io.Writer, s hinch.Snapshot) {
	counter(w, "xspcl_jobs_total", "Executed jobs.", s.Jobs)
	counter(w, "xspcl_events_total", "Reconfiguration events emitted.", s.Events)
	counter(w, "xspcl_iterations_launched_total", "Iterations admitted to the pipeline.", s.Launched)
	counter(w, "xspcl_iterations_retired_total", "Iterations retired (cancelled included).", s.Retired)
	counter(w, "xspcl_iterations_processed_total", "Iterations retired and counted.", int64(s.Iterations))
	gauge(w, "xspcl_iterations_inflight", "Iterations currently in the pipeline.", s.Inflight)
	counter(w, "xspcl_faults_total", "Contained component failures.", s.Faults)
	counter(w, "xspcl_retries_total", "Policy re-attempts.", s.Retries)
	counter(w, "xspcl_degradations_total", "Degradation events pushed to managers.", s.Degradations)
	counter(w, "xspcl_reconfigs_total", "Reconfigurations applied.", s.Reconfigs)
	counter(w, "xspcl_steals_total", "Jobs stolen from other workers.", s.Sched.Steals)
	counter(w, "xspcl_steal_tries_total", "Steal scans.", s.Sched.StealAttempts)
	counter(w, "xspcl_parks_total", "Worker park events.", s.Sched.Parks)
	stalled := int64(0)
	if s.Stalled {
		stalled = 1
	}
	gauge(w, "xspcl_stalled", "1 while the progress watchdog sees no retirements.", stalled)
	counter(w, "xspcl_stalls_total", "Distinct stall episodes.", s.Stalls)
	gauge(w, "xspcl_stream_cap", "Stream-buffer sets in the window: the most iterations in flight.", int64(s.StreamCap))

	if len(s.Stages) > 0 {
		fmt.Fprintf(w, "# HELP xspcl_stage_width Replica width per stage.\n# TYPE xspcl_stage_width gauge\n")
		for _, st := range s.Stages {
			fmt.Fprintf(w, "xspcl_stage_width{stage=%q} %d\n", st.Name, st.Width)
		}
		fmt.Fprintf(w, "# HELP xspcl_stage_jobs_total Executed jobs per stage.\n# TYPE xspcl_stage_jobs_total counter\n")
		for _, st := range s.Stages {
			fmt.Fprintf(w, "xspcl_stage_jobs_total{stage=%q} %d\n", st.Name, st.Jobs)
		}
		fmt.Fprintf(w, "# HELP xspcl_stage_svc_time Per-job service time per stage (%s).\n# TYPE xspcl_stage_svc_time histogram\n", s.Units)
		for _, st := range s.Stages {
			renderHist(w, "xspcl_stage_svc_time", fmt.Sprintf("stage=%q", st.Name), st.Svc)
		}
	}
	if s.IterLat != nil {
		fmt.Fprintf(w, "# HELP xspcl_iter_latency Iteration launch-to-retire latency (%s).\n# TYPE xspcl_iter_latency histogram\n", s.Units)
		renderHist(w, "xspcl_iter_latency", "", *s.IterLat)
	}
	gauge(w, "xspcl_window_occupancy", "Stream-buffer sets held by in-flight iterations.", int64(s.Occupancy))
	gauge(w, "xspcl_window_high_water", "Most stream-buffer sets ever held at once.", int64(s.HighWater))
}

// renderHist writes one histogram series with the fixed log2 bucket
// bounds: bucket i covers values up to hinch.BucketBound(i) inclusive,
// so the cumulative counts are exact (no interpolation).
func renderHist(w io.Writer, name, label string, h hinch.HistSnap) {
	open, sep := "", ""
	if label != "" {
		open, sep = label, ","
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", name, open, sep, hinch.BucketBound(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, open, sep, h.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, braced(label), h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(label), h.Count)
}

func braced(label string) string {
	if label == "" {
		return ""
	}
	return "{" + label + "}"
}
