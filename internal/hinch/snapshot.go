package hinch

import "xspcl/internal/graph"

// This file implements App.Snapshot, the lock-free mid-run state probe
// behind /statusz and the xspcltop dashboard. Every field it reads is
// either atomic (the counters shards, the histograms, window occupancy)
// or immutable after NewApp (names, depths, replica widths, the stream
// capacity, configuration), so a snapshot never takes the engine lock and
// never perturbs the run — safe to call from any goroutine, at any
// rate, on either backend.

// Snapshot is a point-in-time view of a running (or finished) App,
// folded from the per-writer counter shards and histograms — the one
// schema every reader renders: the final Report is the last Snapshot
// plus run-end fields, and /metrics, /statusz, the dashboard and
// serve.Status are views of it. Histogram values are virtual cycles on
// the sim backend and wall nanoseconds on the real one (see Units).
// Only the histograms and the watchdog state (Stalled, Stalls) need
// Config.Telemetry and are empty without it.
type Snapshot struct {
	// Backend is "sim" or "real"; Units names the time domain of every
	// histogram and latency value ("cycles" or "ns").
	Backend string `json:"backend"`
	Units   string `json:"units"`
	// Cores is the number of simulated cores / worker goroutines.
	Cores int `json:"cores"`
	// Telemetry reports whether the histogram/watchdog subsystem is
	// live (Config.Telemetry).
	Telemetry bool `json:"telemetry"`

	// Progress counters.
	Launched   int64 `json:"launched"`   // iterations admitted
	Retired    int64 `json:"retired"`    // iterations retired (cancelled included)
	Iterations int   `json:"iterations"` // iterations retired and counted
	Inflight   int64 `json:"inflight"`   // Launched - Retired
	Jobs       int64 `json:"jobs"`       // executed jobs
	// Events counts every event pushed to a queue, the synthetic fault
	// events sent to managers included.
	Events int64 `json:"events"`

	// Fault-tolerance and reconfiguration totals. Faults counts
	// contained component failures (failed attempts under a non-fail
	// policy or the fault injector), Retries the re-attempts made under
	// retry policies, Degradations the synthetic fault events emitted to
	// managers (policy exhaustion, skipped iterations, watchdog
	// overruns), Reconfigs the reconfigurations applied.
	Faults       int64 `json:"faults"`
	Retries      int64 `json:"retries"`
	Degradations int64 `json:"degradations"`
	Reconfigs    int64 `json:"reconfigs"`

	// Sched holds the work-stealing scheduler counters (real backend).
	Sched SchedStats `json:"sched"`

	// Watchdog state (Config.Telemetry): Stalled is the live /healthz
	// signal, Stalls the number of distinct stall episodes so far.
	Stalled bool  `json:"stalled"`
	Stalls  int64 `json:"stalls"`

	// Cancelled reports that the run's context fired and the pipeline
	// is draining (or drained) early.
	Cancelled bool `json:"cancelled"`

	// IterLat is the launch->retire latency histogram; StealTake and
	// ParkDur profile the scheduler (real backend). Config.Telemetry.
	IterLat   *HistSnap `json:"iter_latency,omitempty"`
	StealTake *HistSnap `json:"steal_take,omitempty"`
	ParkDur   *HistSnap `json:"park_dur,omitempty"`

	// Stages mirror the pipeline structure with live data, one per
	// task, in plan order.
	Stages []StageSnap `json:"stages,omitempty"`

	// The stream-buffer window. StreamCap is the run's stream capacity:
	// the window's buffer sets, so the iterations it may have in
	// flight, fixed at NewApp from the replica widths. Occupancy is the
	// sets held right now, HighWater the most ever held at once (the
	// sets filled so far), and Occ the occupancy after each acquisition
	// (Config.Telemetry).
	StreamCap int       `json:"stream_cap"`
	Occupancy int       `json:"occupancy"`
	HighWater int       `json:"high_water"`
	Occ       *HistSnap `json:"occ,omitempty"`
}

// StageSnap is one task's live state: its class, current replica
// width, its work counters, and its merged service-time histogram
// (Config.Telemetry; every job on the sim backend, stride-sampled on
// the real one).
type StageSnap struct {
	Name string `json:"name"`
	// Class is the component class; manager entry/exit tasks use the
	// pseudo-class "manager".
	Class string `json:"class"`
	Width int    `json:"width"`
	ClassStats
	Svc HistSnap `json:"svc"`
}

// PerClass folds Stages by class. A class none of whose tasks did any
// work is absent.
func (s Snapshot) PerClass() map[string]ClassStats {
	pc := map[string]ClassStats{}
	for _, st := range s.Stages {
		if st.ClassStats == (ClassStats{}) {
			continue
		}
		c := pc[st.Class]
		c.add(st.ClassStats)
		pc[st.Class] = c
	}
	return pc
}

// Snapshot captures the App's live state. Safe to call from any
// goroutine while Run executes (and before or after it); it never
// blocks the run.
func (a *App) Snapshot() Snapshot {
	e := a.eng
	t := e.fold()
	s := Snapshot{
		Backend:      "sim",
		Units:        "cycles",
		Cores:        a.cfg.Cores,
		Launched:     t.launched,
		Retired:      t.retired,
		Iterations:   int(t.processed),
		Inflight:     t.launched - t.retired,
		Jobs:         t.jobs,
		Events:       t.events,
		Faults:       t.faults,
		Retries:      t.retries,
		Degradations: t.degradations,
		Reconfigs:    t.reconfigs,
		Sched:        t.sched,
		StreamCap:    e.bufCap,
		Occupancy:    int(e.win.active.Load()),
		HighWater:    int(e.win.hw.Load()),
		Cancelled:    e.cancelled.Load(),
		Stages:       make([]StageSnap, 0, len(a.plan.Tasks)),
	}
	if a.cfg.Backend == BackendReal {
		s.Backend = "real"
		s.Units = "ns"
	}

	tm := e.tm
	if tm != nil {
		s.Telemetry = true
		s.Stalled = tm.stalled.Load()
		s.Stalls = tm.stalls.Load()
		il, occ := tm.iterLat.snap(), tm.occ.snap()
		s.IterLat, s.Occ = &il, &occ
		n := len(tm.shards)
		if st := mergeHists(n, func(i int) *hist { return &tm.shards[i].stealTake }); st.Count > 0 {
			s.StealTake = &st
		}
		if pd := mergeHists(n, func(i int) *hist { return &tm.shards[i].parkDur }); pd.Count > 0 {
			s.ParkDur = &pd
		}
	}

	for _, task := range a.plan.Tasks {
		st := StageSnap{
			Name:       task.Name,
			Class:      classKey(task),
			Width:      e.widths[task.ID],
			ClassStats: t.task[task.ID],
		}
		if tm != nil {
			st.Svc = tm.stageHist(task.ID)
		}
		s.Stages = append(s.Stages, st)
	}
	return s
}

// classKey maps a task to its per-class stats bucket.
func classKey(t *graph.Task) string {
	if t.Role != graph.RoleComponent {
		return "manager"
	}
	return t.Class
}
