package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/serve"
)

// blockComp holds its first iteration until released, so the session
// stays observable mid-run.
type blockComp struct{ ch chan struct{} }

func (c *blockComp) Init(*hinch.InitContext) error { return nil }
func (c *blockComp) Run(rc *hinch.RunContext) error {
	if rc.Iteration() == 0 {
		<-c.ch
	}
	rc.Charge(10)
	return nil
}

func blockJob(name string, release chan struct{}) serve.Job {
	return blockJobCfg(name, release, hinch.Config{Backend: hinch.BackendReal, Cores: 1, PipelineDepth: 1})
}

func blockJobCfg(name string, release chan struct{}, cfg hinch.Config) serve.Job {
	return serve.Job{
		Name: name, Cores: 1, Iterations: 2,
		New: func() (*hinch.App, error) {
			r := hinch.NewRegistry()
			r.Register("block", hinch.ClassSpec{New: func() hinch.Component { return &blockComp{ch: release} }})
			b := graph.NewBuilder("solo")
			b.Body(b.Component("c", "block", nil, nil))
			return hinch.NewApp(b.MustProgram(), r, cfg)
		},
	}
}

func TestSupervisorSurface(t *testing.T) {
	sup := serve.New(serve.Limits{MaxSessions: 1, QueueDepth: 4, DrainGrace: 2 * time.Second})
	srv := httptest.NewServer(NewSupervisorServer(sup).Handler())
	defer srv.Close()

	release := make(chan struct{})
	running, err := sup.Submit(blockJob("held", release))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := sup.Submit(blockJob("waiting", release))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy while sessions run and queue.
	if code, body := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "running=1 queued=1") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	// /statusz carries the stats block and the per-session table.
	_, body := get(t, srv.URL+"/statusz")
	var status struct {
		Stats    serve.Stats    `json:"stats"`
		Sessions []serve.Status `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if status.Stats.Running != 1 || status.Stats.Queued != 1 {
		t.Fatalf("statusz stats: %+v", status.Stats)
	}
	if len(status.Sessions) != 2 ||
		status.Sessions[0].Name != "held" || status.Sessions[0].State != serve.StateRunning ||
		status.Sessions[1].Name != "waiting" || status.Sessions[1].State != serve.StateQueued {
		t.Fatalf("statusz sessions: %+v", status.Sessions)
	}

	// /metrics carries the supervisor counters.
	if _, body := get(t, srv.URL+"/metrics"); !strings.Contains(body, "xspcl_sessions_submitted_total 2") ||
		!strings.Contains(body, "xspcl_sessions_running 1") ||
		!strings.Contains(body, "xspcl_sessions_queued 1") {
		t.Fatalf("metrics: %s", body)
	}

	close(release)
	running.Wait()
	queued.Wait()
	final := sup.Drain()
	if final.Completed != 2 {
		t.Fatalf("final stats: %+v", final)
	}

	// Draining flips /healthz to 503.
	if code, body := get(t, srv.URL+"/healthz"); code != 503 || !strings.Contains(body, "draining=true") {
		t.Fatalf("healthz after drain: %d %q", code, body)
	}
	if _, body := get(t, srv.URL+"/metrics"); !strings.Contains(body, "xspcl_draining 1") ||
		!strings.Contains(body, "xspcl_sessions_completed_total 2") {
		t.Fatalf("metrics after drain: %s", body)
	}
}

func TestSupervisorHealthzCountsStalledSessions(t *testing.T) {
	sup := serve.New(serve.Limits{MaxSessions: 2, DrainGrace: 2 * time.Second})
	srv := httptest.NewServer(NewSupervisorServer(sup).Handler())
	defer srv.Close()

	// A session wedged in its first iteration with an aggressive
	// telemetry watchdog: no retirements across the epochs flips its
	// Snapshot().Stalled, which /healthz must surface as a 503.
	release := make(chan struct{})
	s, err := sup.Submit(blockJobCfg("wedged", release, hinch.Config{
		Backend: hinch.BackendReal, Cores: 1, PipelineDepth: 1,
		Telemetry: true, WatchdogEpoch: 10 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, srv.URL+"/healthz")
		if code == 503 && strings.Contains(body, "stalled_sessions=1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never saw the stalled session: %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	if outcome, _, _ := s.Wait(); outcome != serve.OutcomeCompleted {
		t.Fatalf("wedged session outcome %s", outcome)
	}
	sup.Drain()
}
