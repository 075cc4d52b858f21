package hinch

import (
	"fmt"
	"slices"

	"xspcl/internal/graph"
)

// mgrPhase is the reconfiguration protocol state of one manager.
type mgrPhase int

const (
	mgrIdle    mgrPhase = iota // no reconfiguration in progress
	mgrHalted                  // change detected; subgraph draining
	mgrApplied                 // options spliced; pipeline draining before resume
)

// mgrState tracks one manager's reconfiguration protocol.
type mgrState struct {
	phase     mgrPhase
	pending   map[string]bool // desired option states (nil when idle)
	gateAfter int             // last iteration allowed into the subgraph (the detecting entry's)
	parked    []job           // held entry jobs of iterations > gateAfter
}

// managerPoll runs a manager job. An exit job does nothing here: it is
// only the subgraph's quiescence point (see complete). The entry of
// iteration k delivers exactly the events stamped <= k - PipelineDepth
// (paper §3.4's detection step) and applies their bound actions; the
// iteration itself still runs under the applied configuration, since
// staged changes land only at quiescence (applyReconfig). Iteration
// k launched only after k - bufCap, and so k - PipelineDepth, retired
// (canLaunch), so every such event is already queued: delivery never
// waits and never depends on the schedule. Events pushed from outside
// the run (stamp -1) are taken by the next entry. It returns the
// compute ops to charge for overlapped component pre-creation. Must be
// called with mu held.
func (e *engine) managerPoll(p *probe, j job) (ops int64, err error) {
	if j.task.Role != graph.RoleManagerEntry {
		return 0, nil
	}
	m := e.app.managers[j.task.Manager]
	if m == nil {
		return 0, fmt.Errorf("hinch: unknown manager %q", j.task.Manager)
	}
	st := e.mgrs[j.task.Manager]
	if m.Queue != "" {
		drained := e.app.queues[m.Queue].Drain(max(j.iter-e.app.cfg.PipelineDepth, -1))
		if len(drained) > 0 {
			p.eventDrain(j.iter, e.app.queueIndex[m.Queue], len(drained))
		}
		for _, ev := range drained {
			for _, bind := range m.Bindings {
				if bind.Event != ev.Name {
					continue
				}
				for _, act := range bind.Actions {
					o, err := e.applyAction(p, m, st, j, ev, act)
					if err != nil {
						return ops, err
					}
					ops += o
				}
			}
			// Events nobody bound are dropped, like unhandled user input.
		}
	}
	return ops, nil
}

// applyAction performs one bound action of a delivered event:
// enable/disable/toggle stage a pending option flip and halt the
// manager, reconfig records a request, forward re-enqueues the event
// stamped with the forwarding entry's iteration, so each hop adds
// PipelineDepth. Must be called with mu held, via managerPoll.
func (e *engine) applyAction(p *probe, m *graph.Node, st *mgrState, j job, ev Event, act graph.EventAction) (ops int64, err error) {
	switch act.Kind {
	case graph.ActionEnable, graph.ActionDisable, graph.ActionToggle:
		cur, ok := st.pending[act.Option] // the state including pending changes
		if !ok {
			cur = e.app.options[act.Option]
		}
		want := cur
		switch act.Kind {
		case graph.ActionEnable:
			want = true
		case graph.ActionDisable:
			want = false
		case graph.ActionToggle:
			want = !cur
		}
		if want == cur {
			return 0, nil // "the event is ignored when the option is already in the required state"
		}
		if st.pending == nil {
			st.pending = map[string]bool{}
		}
		st.pending[act.Option] = want
		if st.phase == mgrIdle {
			// Entries run in iteration order, so no later iteration has
			// entered the subgraph: this one is the last to run the old
			// configuration.
			st.phase = mgrHalted
			st.gateAfter = j.iter
			p.halt(e.mgrIndex[m.Name], st.gateAfter)
		}
		if want && !e.app.cfg.LazyCreation {
			// Pre-create the option's components now, overlapped with
			// execution, so the quiescent window stays short (§3.4:
			// "these components do not have to be created and
			// initialized during reconfiguration").
			n, err := e.preCreateOption(st, act.Option)
			if err != nil {
				return 0, err
			}
			ops = int64(n) * createOpsPerComponent
		}
		return ops, nil

	case graph.ActionForward:
		q, ok := e.app.queues[act.Queue]
		if !ok {
			return 0, fmt.Errorf("hinch: manager %q forwards to unknown queue %q", m.Name, act.Queue)
		}
		q.push(ev, j.iter, j.task.ID)
		return 0, nil

	case graph.ActionReconfig:
		// Broadcast a reconfiguration request to all components in the
		// managed subgraph that listen for them.
		req := act.Request
		if req == "" {
			req = ev.Arg
		}
		for _, t := range e.app.plan.ComponentTasks() {
			if !slices.Contains(t.Scope, m.Name) {
				continue
			}
			if inst := e.app.instTab[t.ID].Load(); inst != nil && inst.recon != nil {
				inst.deliver(req, j.iter)
			}
		}
		return 0, nil
	}
	return 0, fmt.Errorf("hinch: unknown action kind %v", act.Kind)
}

// preCreateOption instantiates the components inside an option that
// the manager's staged changes switch on — every option enclosing them
// on — if they do not exist yet, and returns how many were created.
func (e *engine) preCreateOption(st *mgrState, option string) (int, error) {
	created := 0
	for _, t := range e.app.plan.ComponentTasks() {
		if !slices.Contains(t.Options, option) || !e.app.optionsOn(t, st.pending) {
			continue
		}
		if e.app.instTab[t.ID].Load() == nil {
			if err := e.app.createInstance(t); err != nil {
				return created, err
			}
			created++
		}
	}
	return created, nil
}

// applyReconfig splices the pending option changes in at subgraph
// quiescence: iterations up to gateAfter have fully left the manager's
// subgraph and later iterations are parked at its entrance, so no job
// of a task inside a changed option is in flight while its off flag and
// instance change. A task is on only when every option enclosing it is.
// It returns the stall to charge; a non-nil error (component creation
// failed inside the quiescent window) must abort the run. Must be
// called with mu held.
func (e *engine) applyReconfig(name string, st *mgrState, p *probe) (int64, error) {
	for opt, v := range st.pending {
		e.app.options[opt] = v
	}
	nChanged, created := 0, 0
	var firstErr error
	for _, t := range e.app.plan.Tasks {
		if !slices.ContainsFunc(t.Options, func(o string) bool { _, ok := st.pending[o]; return ok }) {
			continue
		}
		on := e.app.optionsOn(t, nil)
		e.app.off[t.ID].Store(!on)
		if t.Role != graph.RoleComponent {
			continue
		}
		nChanged++
		if !on {
			// "multiple components are destroyed and/or created"
			e.app.instTab[t.ID].Store(nil)
		} else if e.app.instTab[t.ID].Load() == nil {
			// Pre-created at event detection unless LazyCreation (or an
			// externally injected enable) deferred it to this quiescent
			// window, where its cost becomes stall time.
			if err := e.app.createInstance(t); err != nil {
				firstErr = err
				break
			}
			created++
		}
	}
	stall := reconfigBaseCycles +
		reconfigPerTaskCycles*int64(nChanged) +
		createOpsPerComponent*int64(created)
	e.stall += stall
	p.apply(e.mgrIndex[name], st.gateAfter, stall)
	// Parked entries stay held until checkResumes sees the pipeline
	// fully drained of pre-halt iterations.
	st.pending = nil
	st.phase = mgrApplied
	return stall, firstErr
}

// checkResumes releases managers in the applied phase once every
// iteration from before the halt has fully retired: the pipeline has
// drained ("the application is run sequentially", §4.3) and refills
// from the parked iterations — the parallelism loss the paper's Figure
// 10 measures. The manager halted in iteration gateAfter, so gateAfter
// was launched and has retired once retireNext passes it. Must be
// called with mu held.
func (e *engine) checkResumes(p *probe) {
	for mi, name := range e.mgrNames {
		st := e.mgrs[name]
		if st.phase != mgrApplied || e.retireNext <= st.gateAfter {
			continue
		}
		p.resume(mi, st.gateAfter)
		for _, pj := range st.parked {
			e.enqueue(p, pj)
		}
		st.parked = nil
		st.phase = mgrIdle
		e.launch(p)
	}
}
