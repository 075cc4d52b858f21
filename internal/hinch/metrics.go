package hinch

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"xspcl/internal/spacecake"
)

// ClassStats aggregates per-component-class counters from a run.
type ClassStats struct {
	Jobs      int64 `json:"jobs"`       // jobs executed
	Ops       int64 `json:"ops"`        // arithmetic operations charged (sim)
	MemCycles int64 `json:"mem_cycles"` // memory latency cycles charged (sim)
	Faults    int64 `json:"faults"`     // contained component failures (failed attempts)
	Retries   int64 `json:"retries"`    // re-attempts made under a retry policy
}

func (c *ClassStats) add(o ClassStats) {
	c.Jobs += o.Jobs
	c.Ops += o.Ops
	c.MemCycles += o.MemCycles
	c.Faults += o.Faults
	c.Retries += o.Retries
}

// SchedStats aggregates the real backend's work-stealing scheduler
// actions, summed over the per-worker counter shards.
type SchedStats struct {
	// StealAttempts counts scans for remote work (a worker's own deque
	// came up empty).
	StealAttempts int64 `json:"steal_attempts"`
	// Steals counts jobs actually taken from another worker's deque.
	Steals int64 `json:"steals"`
	// GlobalPops counts jobs taken from the global overflow queue.
	GlobalPops int64 `json:"global_pops"`
	// Parks counts workers blocking because no work was runnable.
	Parks int64 `json:"parks"`
	// Wakes counts idle workers unparked by a job push.
	Wakes int64 `json:"wakes"`
	// Batches counts multi-job batch publishes: runs of released jobs
	// made runnable with one deque interaction (batched dispatch).
	Batches int64 `json:"batches"`
	// Chained counts jobs executed straight off a worker's chain slot —
	// same-task consecutive iterations run back-to-back without ever
	// touching a queue.
	Chained int64 `json:"chained"`
}

// Outcome classifies how a run ended. A run that returns an error has
// no meaningful outcome; a run that returns a Report is either
// completed (ran to its iteration limit or EOS) or cancelled (the
// RunContext context fired and the pipeline drained early — the Report
// then covers the iterations processed before the cut).
type Outcome string

// Run outcomes.
const (
	OutcomeCompleted Outcome = "completed"
	OutcomeCancelled Outcome = "cancelled"
)

// Report summarises one App.Run.
type Report struct {
	// Outcome says whether the run completed or was cancelled.
	Outcome Outcome
	// Iterations actually processed (excluding cancelled ones after EOS).
	Iterations int
	// Cycles is the virtual completion time on the sim backend.
	Cycles int64
	// Wall is the elapsed host time (meaningful on the real backend).
	Wall time.Duration
	// Jobs is the total number of jobs executed.
	Jobs int64
	// Cores is the number of cores/workers used.
	Cores int
	// Cache holds the memory-system counters (sim backend).
	Cache spacecake.Stats
	// PerClass breaks work down by component class; manager entry/exit
	// jobs appear under the pseudo-class "manager".
	PerClass map[string]ClassStats
	// CoreBusy is the busy time per core in cycles (sim backend).
	CoreBusy []int64
	// Reconfigs counts completed reconfigurations.
	Reconfigs int
	// ReconfigStall is the virtual time spent fully quiescent waiting
	// for reconfigurations (sim backend).
	ReconfigStall int64
	// EventsEmitted counts events pushed to queues during the run.
	EventsEmitted int64
	// Faults counts contained component failures (failed attempts under
	// a non-fail policy or the fault injector); per-task breakdown in
	// PerClass.
	Faults int64
	// Retries counts component re-attempts made under retry policies.
	Retries int64
	// Degradations counts synthetic fault events emitted to managers
	// (policy exhaustion, skipped iterations, watchdog overruns).
	Degradations int64
	// Sched holds the work-stealing scheduler counters (real backend).
	Sched SchedStats
	// Tune summarises autotuner activity (Config.Autotune).
	Tune TuneStats
	// TuneLog is the autotuner's full decision trace, in decision
	// order. On the sim backend it is deterministic for a fixed program
	// and config. Excluded from the JSON report.
	TuneLog []TuneDecision
	// Stages holds per-stage service-time distributions
	// (Config.Telemetry): virtual cycles on the sim backend (every job
	// recorded, deterministic), sampled wall ns on real.
	Stages []StageLat
	// IterLat is the end-to-end iteration latency distribution, source
	// launch to sink retire (Config.Telemetry); nil without telemetry.
	IterLat *StageLat
	// Stalls counts stalled-progress watchdog trips (Config.Telemetry).
	Stalls int64
}

// StageLat is one stage's latency distribution summary, derived from
// the telemetry histograms. Quantiles are deterministic bucket upper
// bounds (see HistSnap.Quantile). Units follow the backend's telemetry
// clock: virtual cycles on sim, wall nanoseconds on real.
type StageLat struct {
	Name string `json:"name"`
	Jobs int64  `json:"jobs"` // jobs the stage executed (iterations retired, for IterLat)
	P50  int64  `json:"p50"`
	P95  int64  `json:"p95"`
	P99  int64  `json:"p99"`
	Max  int64  `json:"max"`
}

// stageLat folds a merged histogram into a summary row.
func stageLat(name string, jobs int64, h HistSnap) StageLat {
	return StageLat{
		Name: name, Jobs: jobs,
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Max: h.Max,
	}
}

// CyclesPerIteration returns the average virtual cost of one iteration.
func (r *Report) CyclesPerIteration() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Iterations)
}

// Utilisation returns mean core-busy fraction on the sim backend.
func (r *Report) Utilisation() float64 {
	if r.Cycles == 0 || len(r.CoreBusy) == 0 {
		return 0
	}
	var busy int64
	for _, b := range r.CoreBusy {
		busy += b
	}
	return float64(busy) / (float64(r.Cycles) * float64(len(r.CoreBusy)))
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d jobs=%d cores=%d", r.Iterations, r.Jobs, r.Cores)
	if r.Outcome == OutcomeCancelled {
		fmt.Fprintf(&b, " outcome=%s", r.Outcome)
	}
	if r.Cycles > 0 {
		fmt.Fprintf(&b, " cycles=%d (%.0f/iter, util %.0f%%)", r.Cycles, r.CyclesPerIteration(), 100*r.Utilisation())
	}
	if r.Wall > 0 {
		fmt.Fprintf(&b, " wall=%v", r.Wall)
	}
	if r.Reconfigs > 0 {
		fmt.Fprintf(&b, " reconfigs=%d stall=%d", r.Reconfigs, r.ReconfigStall)
	}
	if r.EventsEmitted > 0 {
		fmt.Fprintf(&b, " events=%d", r.EventsEmitted)
	}
	if r.Faults > 0 || r.Retries > 0 || r.Degradations > 0 {
		fmt.Fprintf(&b, " faults=%d retries=%d degradations=%d", r.Faults, r.Retries, r.Degradations)
	}
	if r.Stalls > 0 {
		fmt.Fprintf(&b, " stalls=%d", r.Stalls)
	}
	if r.Sched != (SchedStats{}) {
		fmt.Fprintf(&b, " steals=%d/%d global=%d parks=%d wakes=%d",
			r.Sched.Steals, r.Sched.StealAttempts, r.Sched.GlobalPops, r.Sched.Parks, r.Sched.Wakes)
	}
	if r.Tune.Epochs > 0 {
		fmt.Fprintf(&b, " tune: epochs=%d widen=%d shrink=%d depth=+%d/-%d",
			r.Tune.Epochs, r.Tune.Widen, r.Tune.Shrink, r.Tune.DepthRaises, r.Tune.DepthDrops)
	}
	if r.Cache != (spacecake.Stats{}) {
		fmt.Fprintf(&b, " L1miss=%.1f%% L2miss=%d", 100*r.Cache.L1MissRate(), r.Cache.L2Misses)
	}
	classes := make([]string, 0, len(r.PerClass))
	for c := range r.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := r.PerClass[c]
		fmt.Fprintf(&b, "\n  %-14s jobs=%-6d ops=%-12d mem=%d", c, s.Jobs, s.Ops, s.MemCycles)
	}
	if r.IterLat != nil {
		fmt.Fprintf(&b, "\n  lat %-14s n=%-6d p50=%-8d p95=%-8d p99=%-8d max=%d",
			r.IterLat.Name, r.IterLat.Jobs, r.IterLat.P50, r.IterLat.P95, r.IterLat.P99, r.IterLat.Max)
	}
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "\n  lat %-14s n=%-6d p50=%-8d p95=%-8d p99=%-8d max=%d",
			s.Name, s.Jobs, s.P50, s.P95, s.P99, s.Max)
	}
	return b.String()
}

// MarshalJSON renders the report with stable snake_case keys plus the
// derived figures (cycles per iteration, utilisation) the paper's
// tables quote, so `-report json` output feeds scripts directly.
func (r *Report) MarshalJSON() ([]byte, error) {
	type cacheJSON struct {
		L1Hits        int64 `json:"l1_hits"`
		L1Misses      int64 `json:"l1_misses"`
		L2Hits        int64 `json:"l2_hits"`
		L2Misses      int64 `json:"l2_misses"`
		MemCycles     int64 `json:"mem_cycles"`
		StreamedLines int64 `json:"streamed_lines"`
	}
	type reportJSON struct {
		Outcome            string                `json:"outcome"`
		Iterations         int                   `json:"iterations"`
		Cycles             int64                 `json:"cycles"`
		CyclesPerIteration float64               `json:"cycles_per_iteration"`
		Utilisation        float64               `json:"utilisation"`
		WallNS             int64                 `json:"wall_ns"`
		Jobs               int64                 `json:"jobs"`
		Cores              int                   `json:"cores"`
		Reconfigs          int                   `json:"reconfigs"`
		ReconfigStall      int64                 `json:"reconfig_stall"`
		EventsEmitted      int64                 `json:"events_emitted"`
		Faults             int64                 `json:"faults"`
		Retries            int64                 `json:"retries"`
		Degradations       int64                 `json:"degradations"`
		Sched              SchedStats            `json:"sched"`
		Tune               TuneStats             `json:"tune"`
		Cache              cacheJSON             `json:"cache"`
		CoreBusy           []int64               `json:"core_busy,omitempty"`
		PerClass           map[string]ClassStats `json:"per_class"`
		Stages             []StageLat            `json:"stages,omitempty"`
		IterLat            *StageLat             `json:"iter_latency,omitempty"`
		Stalls             int64                 `json:"stalls,omitempty"`
	}
	out := r.Outcome
	if out == "" {
		out = OutcomeCompleted
	}
	return json.Marshal(reportJSON{
		Outcome:            string(out),
		Iterations:         r.Iterations,
		Cycles:             r.Cycles,
		CyclesPerIteration: r.CyclesPerIteration(),
		Utilisation:        r.Utilisation(),
		WallNS:             int64(r.Wall),
		Jobs:               r.Jobs,
		Cores:              r.Cores,
		Reconfigs:          r.Reconfigs,
		ReconfigStall:      r.ReconfigStall,
		EventsEmitted:      r.EventsEmitted,
		Faults:             r.Faults,
		Retries:            r.Retries,
		Degradations:       r.Degradations,
		Sched:              r.Sched,
		Tune:               r.Tune,
		Cache: cacheJSON{
			L1Hits:        r.Cache.L1Hits,
			L1Misses:      r.Cache.L1Misses,
			L2Hits:        r.Cache.L2Hits,
			L2Misses:      r.Cache.L2Misses,
			MemCycles:     r.Cache.MemCyclesTotal,
			StreamedLines: r.Cache.StreamedLines,
		},
		CoreBusy: r.CoreBusy,
		PerClass: r.PerClass,
		Stages:   r.Stages,
		IterLat:  r.IterLat,
		Stalls:   r.Stalls,
	})
}

// counters is one writer's shard of the run's accounting — the only
// one there is, and the always-on part of that writer's probe
// (probe.go). Every counted boundary adds to the acting writer's own
// shard exactly once, through its probe, and fold is the only reader:
// the final Report, a mid-run Snapshot and everything rendered from it
// (/metrics, /statusz, xspcltop, serve.Status) are the same sums and
// cannot disagree. An add never contends (one writer per shard); the
// fields are atomic so that fold may run mid-run from any goroutine.
type counters struct {
	task []taskCounters // indexed by task ID

	launched     atomic.Int64 // iterations admitted to the pipeline
	retired      atomic.Int64 // iterations retired, cancelled included
	processed    atomic.Int64 // iterations retired and counted
	reconfigs    atomic.Int64 // reconfigurations applied
	events       atomic.Int64 // events pushed to queues
	degradations atomic.Int64 // synthetic fault events sent to managers

	// Work-stealing scheduler actions (real backend); see SchedStats.
	stealAttempts atomic.Int64
	steals        atomic.Int64
	globalPops    atomic.Int64
	parks         atomic.Int64
	wakes         atomic.Int64
	batches       atomic.Int64
	chained       atomic.Int64
}

// taskCounters is one task's slice of a shard. jobs is the one add the
// real backend's per-job hot path pays; Report.Jobs and Report.PerClass
// are both derived from it.
type taskCounters struct {
	jobs      atomic.Int64
	faults    atomic.Int64 // contained failed attempts
	retries   atomic.Int64
	ops       atomic.Int64 // sim backend
	memCycles atomic.Int64 // sim backend
}

// totals is the run's accounting summed over every shard.
type totals struct {
	launched, retired, processed    int64
	reconfigs, events, degradations int64
	jobs, faults, retries           int64
	sched                           SchedStats
	task                            []ClassStats // indexed by task ID
}

// fold sums the shards. Safe from any goroutine at any time: mid-run
// every total is monotone from one call to the next, and the iteration
// counters are read in the order processed, retired, launched — the
// reverse of the order the engine bumps them in — so a mid-run reader
// always sees processed <= retired <= launched.
func (e *engine) fold() totals {
	t := totals{task: make([]ClassStats, len(e.app.plan.Tasks))}
	for i := range e.probes {
		t.processed += e.probes[i].processed.Load()
	}
	for i := range e.probes {
		t.retired += e.probes[i].retired.Load()
	}
	for i := range e.probes {
		c := &e.probes[i].counters
		t.launched += c.launched.Load()
		t.reconfigs += c.reconfigs.Load()
		t.events += c.events.Load()
		t.degradations += c.degradations.Load()
		t.sched.StealAttempts += c.stealAttempts.Load()
		t.sched.Steals += c.steals.Load()
		t.sched.GlobalPops += c.globalPops.Load()
		t.sched.Parks += c.parks.Load()
		t.sched.Wakes += c.wakes.Load()
		t.sched.Batches += c.batches.Load()
		t.sched.Chained += c.chained.Load()
		for id := range c.task {
			tc := &c.task[id]
			t.task[id].add(ClassStats{
				Jobs: tc.jobs.Load(), Ops: tc.ops.Load(), MemCycles: tc.memCycles.Load(),
				Faults: tc.faults.Load(), Retries: tc.retries.Load(),
			})
		}
	}
	for _, cs := range t.task {
		t.jobs += cs.Jobs
		t.faults += cs.Faults
		t.retries += cs.Retries
	}
	return t
}
