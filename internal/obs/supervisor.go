package obs

import (
	"fmt"
	"io"
	"net/http"

	"xspcl/internal/serve"
)

// SupervisorServer serves the ops surface for a serve.Supervisor — the
// pool-level view, where Server is the single-app view:
//
//	/metrics   supervisor counters in Prometheus text exposition
//	/statusz   Stats plus the per-session table as indented JSON
//	/healthz   200 while healthy; 503 while draining or when any
//	           running session's progress watchdog is firing
//
// The dependency points one way: this package imports serve, never the
// reverse, so the supervisor stays embeddable without HTTP.
type SupervisorServer struct {
	sup *serve.Supervisor
}

// NewSupervisorServer wraps sup for serving.
func NewSupervisorServer(sup *serve.Supervisor) *SupervisorServer {
	return &SupervisorServer{sup: sup}
}

// Handler returns the supervisor ops mux; all handlers are safe while
// sessions run and settle.
func (s *SupervisorServer) Handler() http.Handler {
	return newMux("xspcl supervisor ops surface\n\n/metrics\n/statusz\n/healthz\n/debug/pprof/\n",
		func(w io.Writer) { RenderSupervisorMetrics(w, s.sup.Stats(), s.sup.StalledSessions()) },
		func() any {
			return supervisorStatus{
				Stats:    s.sup.Stats(),
				Stalled:  s.sup.StalledSessions(),
				Sessions: s.sup.Sessions(),
			}
		},
		s.healthz)
}

// supervisorStatus is the /statusz body: the exact accounting plus the
// per-session table in admission order.
type supervisorStatus struct {
	Stats    serve.Stats    `json:"stats"`
	Stalled  int            `json:"stalled_sessions"`
	Sessions []serve.Status `json:"sessions"`
}

func (s *SupervisorServer) healthz(w http.ResponseWriter, _ *http.Request) {
	st := s.sup.Stats()
	stalled := s.sup.StalledSessions()
	if stalled > 0 || st.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unhealthy: stalled_sessions=%d draining=%v\n", stalled, st.Draining)
		return
	}
	fmt.Fprintf(w, "ok: running=%d queued=%d\n", st.Running, st.Queued)
}

// RenderSupervisorMetrics writes the supervisor counters in the
// Prometheus text exposition format — a pure function of its inputs.
func RenderSupervisorMetrics(w io.Writer, st serve.Stats, stalled int) {
	counter(w, "xspcl_sessions_submitted_total", "Session submissions.", st.Submitted)
	counter(w, "xspcl_sessions_admitted_total", "Submissions admitted (run or queued).", st.Admitted)
	counter(w, "xspcl_sessions_rejected_total", "Submissions rejected (overloaded or draining).", st.Rejected)
	counter(w, "xspcl_sessions_completed_total", "Sessions that finished cleanly.", st.Completed)
	counter(w, "xspcl_sessions_degraded_total", "Sessions that finished degraded.", st.Degraded)
	counter(w, "xspcl_sessions_cancelled_total", "Sessions cancelled (caller, deadline, or drain).", st.Cancelled)
	counter(w, "xspcl_sessions_failed_total", "Sessions that failed (error or contained panic).", st.Failed)
	gauge(w, "xspcl_sessions_running", "Sessions currently running.", int64(st.Running))
	gauge(w, "xspcl_sessions_queued", "Sessions waiting in the admission queue.", int64(st.Queued))
	gauge(w, "xspcl_sessions_stalled", "Running sessions whose progress watchdog is firing.", int64(stalled))
	gauge(w, "xspcl_workers_in_use", "Worker share claimed by running sessions.", int64(st.WorkersInUse))
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	gauge(w, "xspcl_draining", "1 after Drain began.", draining)
}
