package hinch

import (
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
	// Parks counts workers blocking because no work was runnable.
	Parks int64 `json:"parks"`
	// Wakes counts idle workers unparked by a job push.
	Wakes int64 `json:"wakes"`
	// Batches counts multi-job batch publishes: runs of released jobs
	// made runnable with one deque interaction (batched dispatch).
	Batches int64 `json:"batches"`
	// Chained counts jobs executed straight off a worker's chain slot —
	// same-task consecutive iterations run back-to-back without ever
	// touching a queue. Like Jobs it counts dispatched jobs only, never
	// held or skipped ones, so Chained <= Jobs.
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

// Report summarises one App.Run: the final Snapshot — every counter,
// stage, stream and histogram as the run left them —
// plus what only a finished run has.
type Report struct {
	Snapshot
	// Outcome says whether the run completed or was cancelled.
	Outcome Outcome `json:"outcome"`
	// Cycles is the virtual completion time on the sim backend.
	Cycles int64 `json:"cycles"`
	// Wall is the elapsed host time (meaningful on the real backend).
	Wall time.Duration `json:"wall_ns"`
	// CoreBusy is the busy time per core in cycles (sim backend).
	CoreBusy []int64 `json:"core_busy,omitempty"`
	// Cache holds the memory-system counters (sim backend).
	Cache spacecake.Stats `json:"cache"`
	// ReconfigStall is the virtual time spent fully quiescent waiting
	// for reconfigurations (sim backend).
	ReconfigStall int64 `json:"reconfig_stall"`
}

// report assembles the final Report around the same Snapshot a mid-run
// caller gets. Must be called after execution has fully stopped.
func (e *engine) report() *Report {
	r := &Report{Snapshot: e.app.Snapshot(), Outcome: OutcomeCompleted, ReconfigStall: e.stall}
	if r.Cancelled {
		r.Outcome = OutcomeCancelled
	}
	if e.app.tile != nil {
		r.Cache = e.app.tile.Stats()
	}
	return r
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
	if r.Events > 0 {
		fmt.Fprintf(&b, " events=%d", r.Events)
	}
	if r.Faults > 0 || r.Retries > 0 || r.Degradations > 0 {
		fmt.Fprintf(&b, " faults=%d retries=%d degradations=%d", r.Faults, r.Retries, r.Degradations)
	}
	if r.Stalls > 0 {
		fmt.Fprintf(&b, " stalls=%d", r.Stalls)
	}
	if r.Sched != (SchedStats{}) {
		fmt.Fprintf(&b, " steals=%d/%d parks=%d wakes=%d",
			r.Sched.Steals, r.Sched.StealAttempts, r.Sched.Parks, r.Sched.Wakes)
	}
	if r.Cache != (spacecake.Stats{}) {
		fmt.Fprintf(&b, " L1miss=%.1f%% L2miss=%d", 100*r.Cache.L1MissRate(), r.Cache.L2Misses)
	}
	perClass := r.PerClass()
	classes := make([]string, 0, len(perClass))
	for c := range perClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := perClass[c]
		fmt.Fprintf(&b, "\n  %-14s jobs=%-6d ops=%-12d mem=%d", c, s.Jobs, s.Ops, s.MemCycles)
	}
	lat := func(name string, n int64, h HistSnap) {
		fmt.Fprintf(&b, "\n  lat %-14s n=%-6d p50=%-8d p95=%-8d p99=%-8d max=%d",
			name, n, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
	}
	if r.IterLat != nil {
		lat("iteration", r.IterLat.Count, *r.IterLat)
	}
	for _, s := range r.Stages {
		if s.Svc.Count > 0 {
			lat(s.Name, s.Jobs, s.Svc)
		}
	}
	return b.String()
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
	parks         atomic.Int64
	wakes         atomic.Int64
	batches       atomic.Int64
	chained       atomic.Int64
}

// taskCounters is one task's slice of a shard. jobs is the one add the
// real backend's per-job hot path pays; Snapshot.Jobs and every stage's
// Jobs are both derived from it.
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
