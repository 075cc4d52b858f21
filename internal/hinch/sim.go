package hinch

import (
	"container/heap"
	"fmt"

	"xspcl/internal/graph"
)

// completion is a scheduled job-finish event in the discrete-event
// simulation.
type completion struct {
	at    int64 // virtual time the event fires
	seq   int64 // tie-breaker for determinism
	start int64 // virtual time the job was dispatched (trace span start)
	core  int   // core freed by the event; -1 for the end of a reconfiguration stall
	ran   bool  // the job actually executed (not a zero-cost skip)
	j     job
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// runSim drives the engine with a deterministic discrete-event
// simulation on the App's SpaceCAKE tile. Jobs are executed (their
// components actually run) at dispatch time; their results become
// visible to dependents at their virtual completion time, which is
// dispatch time plus the job's compute cycles, memory cycles (from the
// cache model) and the runtime's per-job overhead. The sim goroutine
// is the run's only writer: everything is recorded through probes[0],
// whose clock is the virtual one.
func (e *engine) runSim() (*Report, error) {
	a := e.app
	cores := a.cfg.Cores
	idle := make([]bool, cores)
	for i := range idle {
		idle[i] = true
	}
	nIdle := cores
	busy := make([]int64, cores)
	var clock, seq int64
	var pending completionHeap
	p := &e.probes[0]

	e.launch(p)
	for {
		// The cancellation observation point: once per event-loop turn,
		// before dispatch, so a cancel always lands on a virtual-cycle
		// boundary (and a cancel raised synchronously from inside a
		// component or fault injector is observed at a deterministic
		// place in the schedule).
		e.pollCancel()
		// Dispatch ready jobs onto idle cores in FIFO order, lowest core
		// first (deterministic).
		for nIdle > 0 {
			j, ok := e.pop()
			if !ok {
				break
			}
			adm := e.admit(p, j)
			if adm == admitHeld {
				continue
			}
			core := 0
			for !idle[core] {
				core++
			}
			idle[core] = false
			nIdle--
			// A skipped job (cancelled iteration, disabled option) takes
			// a core for zero cycles: it only moves the dependency
			// machinery forward.
			var dur int64
			ran := adm == admitRun
			if ran {
				var err error
				if dur, err = e.execJobSim(p, j, core); err != nil {
					return nil, err
				}
			} else {
				p.skip(j, core)
			}
			seq++
			heap.Push(&pending, completion{at: clock + dur, seq: seq, start: clock, core: core, ran: ran, j: j})
			busy[core] += dur
		}
		if len(pending) == 0 {
			if e.finished() {
				break
			}
			return nil, fmt.Errorf("hinch: scheduler stalled at cycle %d (%d iterations in flight)", clock, e.nextLaunch-e.retireNext)
		}
		c := heap.Pop(&pending).(completion)
		clock = c.at
		p.ts = clock
		// Watchdog checks fire at virtual-time boundaries, before the
		// completion is applied, so they are a pure function of the
		// virtual schedule — deterministic.
		e.tick(clock)
		if c.core < 0 {
			// A reconfiguration stall elapsed. The event only carries the
			// clock (and the checks above) past it; the parked entries
			// are released by checkResumes.
			continue
		}
		idle[c.core] = true
		nIdle++
		if c.ran {
			p.simSpan(c.j, c.core, c.start, c.at-c.start)
		}
		stall, err := e.complete(c.j, p)
		if err != nil {
			return nil, err
		}
		if stall > 0 {
			seq++
			heap.Push(&pending, completion{at: clock + stall, seq: seq, core: -1})
		}
		if e.err != nil {
			return nil, e.err
		}
	}

	rep := e.report()
	rep.Cycles = clock
	rep.CoreBusy = busy
	return rep, nil
}

// execJobSim executes one admitted job immediately and returns its
// virtual duration in cycles. A component job runs through
// runComponent; a manager job costs the runtime overhead plus the ops
// its poll charged.
func (e *engine) execJobSim(p *probe, j job, core int) (dur int64, err error) {
	p.ran(j.task.ID)
	if j.task.Role == graph.RoleComponent {
		return e.runComponent(p, &e.simRC, j, core)
	}
	ops, err := e.managerPoll(p, j)
	if err != nil {
		return 0, err
	}
	dur = e.app.tile.Config().JobOverheadCycles + ops
	p.charge(j.task.ID, ops, 0, dur)
	return dur, nil
}

// simCost is a component job's virtual duration (1ns = 1 cycle):
// runtime overhead + compute (charged ops) + memory latency (the job's
// recorded accesses run through the cache model on its core) + the
// virtual backoff and delay its policy let pass. It books the job on p.
func (e *engine) simCost(p *probe, rc *RunContext, j job, core int, virtual int64) int64 {
	tile := e.app.tile
	var mem int64
	for _, acc := range rc.access {
		mem += tile.AccessRegion(core, acc.Region, acc.Write)
	}
	for _, r := range rc.streamed {
		mem += tile.AccessStreamed(core, r)
	}
	dur := tile.Config().JobOverheadCycles + rc.compute + mem + virtual
	p.charge(j.task.ID, rc.compute, mem, dur)
	return dur
}
