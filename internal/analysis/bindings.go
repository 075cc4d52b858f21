package analysis

import (
	"fmt"

	"xspcl/internal/graph"
)

// The bindings pass looks for event plumbing that cannot do anything:
// bindings on managers that poll no queue, enable/disable actions that
// are no-ops in every reachable configuration, forwards delivering to
// queues nobody handles, and several actions racing on one option from
// a single event.

// mgrCtx pairs a manager with the options guarding it (a manager
// nested in an option only polls while that option is enabled).
type mgrCtx struct {
	node  *graph.Node
	guard []string
}

func managerCtxs(root *graph.Node) []mgrCtx {
	var out []mgrCtx
	var walk func(n *graph.Node, guard []string)
	walk = func(n *graph.Node, guard []string) {
		if n == nil {
			return
		}
		switch n.Kind {
		case graph.KindManager:
			out = append(out, mgrCtx{node: n, guard: append([]string(nil), guard...)})
		case graph.KindOption:
			guard = append(guard, n.Name)
		}
		for _, c := range n.Children {
			walk(c, guard)
		}
	}
	walk(root, nil)
	return out
}

// bindings runs the dead/conflicting-binding checks.
func (a *analyzer) bindings() {
	mgrs := managerCtxs(a.prog.Root)

	// activeStates(m) = reachable configurations in which m polls.
	activeStates := func(m mgrCtx) []graph.Configuration {
		var out []graph.Configuration
		for _, ci := range a.infos {
			active := true
			for _, o := range m.guard {
				if !ci.cfg.Enabled[o] {
					active = false
					break
				}
			}
			if active {
				out = append(out, ci.cfg)
			}
		}
		return out
	}

	// handled(q, e) = some manager polling q binds event e.
	handled := func(queue, event string) bool {
		for _, m := range mgrs {
			if m.node.Queue != queue {
				continue
			}
			for _, bind := range m.node.Bindings {
				if bind.Event == event {
					return true
				}
			}
		}
		return false
	}

	for _, m := range mgrs {
		if m.node.Queue == "" && len(m.node.Bindings) > 0 {
			a.add(Finding{
				Pass: PassBindings, Severity: Warning,
				Message: fmt.Sprintf("manager %q has event bindings but polls no queue: they can never fire", m.node.Name),
			})
			continue
		}
		states := activeStates(m)
		if len(states) == 0 {
			continue // the guarding option is unreachable; the reconfig pass reports that
		}

		type target struct{ event, option string }
		actionCount := map[target]int{}
		for _, bind := range m.node.Bindings {
			for _, act := range bind.Actions {
				switch act.Kind {
				case graph.ActionEnable, graph.ActionDisable, graph.ActionToggle:
					actionCount[target{bind.Event, act.Option}]++
				}
				switch act.Kind {
				case graph.ActionEnable:
					if !someState(states, act.Option, false) {
						a.add(Finding{
							Pass: PassBindings, Severity: Warning,
							Message: fmt.Sprintf("manager %q: event %q enabling option %q never changes state (the option is enabled in every reachable configuration)",
								m.node.Name, bind.Event, act.Option),
						})
					}
				case graph.ActionDisable:
					if !someState(states, act.Option, true) {
						a.add(Finding{
							Pass: PassBindings, Severity: Warning,
							Message: fmt.Sprintf("manager %q: event %q disabling option %q never changes state (the option is disabled in every reachable configuration)",
								m.node.Name, bind.Event, act.Option),
						})
					}
				case graph.ActionForward:
					if !handled(act.Queue, bind.Event) {
						a.add(Finding{
							Pass: PassBindings, Severity: Warning,
							Message: fmt.Sprintf("manager %q forwards event %q to queue %q, where no manager handles it",
								m.node.Name, bind.Event, act.Queue),
						})
					}
				}
			}
		}
		for tgt, n := range actionCount {
			if n > 1 {
				a.add(Finding{
					Pass: PassBindings, Severity: Warning,
					Message: fmt.Sprintf("manager %q applies %d actions to option %q on event %q: they race on one state, applied in binding order",
						m.node.Name, n, tgt.option, tgt.event),
				})
			}
		}
	}
}

// someState reports whether any of the configurations has the option in
// the given state.
func someState(states []graph.Configuration, option string, val bool) bool {
	for _, c := range states {
		if c.Enabled[option] == val {
			return true
		}
	}
	return false
}
