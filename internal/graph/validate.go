package graph

import "fmt"

// Catalog describes the component classes available to an application:
// which input and output ports each class exposes. The Hinch component
// registry implements it; validation uses it to resolve stream
// directions without depending on the runtime.
type Catalog interface {
	// ClassPorts returns the input and output port names of a class, or
	// an error if the class is unknown.
	ClassPorts(class string) (in, out []string, err error)
}

// Validate checks program-level invariants:
//   - the root exists,
//   - every stream referenced by a component port is declared,
//   - option names are unique and options appear only inside managers,
//   - manager event bindings reference options of that manager's
//     subtree and declared queues, and no two managers poll one queue
//     (a poll drains it, so an event would reach whichever entry ran
//     first),
//   - slice groups have exactly one parblock, replication counts are
//     positive,
//   - stream format= terms parse and are ground, and component
//     interface= overrides parse and name only connected ports,
//   - if catalog is non-nil: classes exist, every class port is
//     connected exactly once, every declared stream has at least one
//     writer and one reader, and components declaring replicate= name
//     classes the catalog registers as stateless (when the catalog
//     implements StatelessCatalog).
//
// The flattened per-configuration invariants (unique instance names,
// acyclicity) are re-checked by BuildPlan.
func (p *Program) Validate(catalog Catalog) error {
	if p.Root == nil {
		return fmt.Errorf("graph: program %q has no body", p.Name)
	}
	streams := map[string]bool{}
	for _, s := range p.Streams {
		if s.Name == "" {
			return fmt.Errorf("graph: unnamed stream")
		}
		if streams[s.Name] {
			return fmt.Errorf("graph: duplicate stream %q", s.Name)
		}
		streams[s.Name] = true
	}
	queues := map[string]bool{}
	for _, q := range p.Queues {
		if queues[q] {
			return fmt.Errorf("graph: duplicate event queue %q", q)
		}
		queues[q] = true
	}

	options := map[string]bool{}
	pollers := map[string]string{} // queue -> the manager polling it
	writers := map[string]int{}
	readers := map[string]int{}

	var check func(n *Node, inManager bool) error
	check = func(n *Node, inManager bool) error {
		if n == nil {
			return nil
		}
		switch n.Kind {
		case KindComponent:
			if n.Class == "" {
				return fmt.Errorf("graph: component %q has no class", n.Name)
			}
			if n.Name == "" {
				return fmt.Errorf("graph: component of class %q has no name", n.Class)
			}
			if _, err := NodePolicy(n); err != nil {
				return fmt.Errorf("graph: component %q: %w", n.Name, err)
			}
			rep, err := NodeReplicate(n)
			if err != nil {
				return fmt.Errorf("graph: component %q: %w", n.Name, err)
			}
			for port, stream := range n.Ports {
				if !streams[stream] {
					return fmt.Errorf("graph: component %q port %q references undeclared stream %q", n.Name, port, stream)
				}
			}
			if catalog != nil {
				if !rep.IsDefault() {
					if sc, ok := catalog.(StatelessCatalog); ok && !sc.ClassStateless(n.Class) {
						return fmt.Errorf("graph: component %q (class %s) declares replicate=%q but the class is not registered stateless", n.Name, n.Class, n.Params[ReplicateParam])
					}
				}
				in, out, err := catalog.ClassPorts(n.Class)
				if err != nil {
					return fmt.Errorf("graph: component %q: %w", n.Name, err)
				}
				seen := map[string]bool{}
				for _, port := range in {
					s, ok := n.Ports[port]
					if !ok {
						return fmt.Errorf("graph: component %q (class %s) missing input port %q", n.Name, n.Class, port)
					}
					readers[s]++
					seen[port] = true
				}
				for _, port := range out {
					s, ok := n.Ports[port]
					if !ok {
						return fmt.Errorf("graph: component %q (class %s) missing output port %q", n.Name, n.Class, port)
					}
					writers[s]++
					seen[port] = true
				}
				for port := range n.Ports {
					if !seen[port] {
						return fmt.Errorf("graph: component %q (class %s) connects unknown port %q", n.Name, n.Class, port)
					}
				}
			}
		case KindPar:
			if n.Shape == ShapeSlice && len(n.Children) != 1 {
				return fmt.Errorf("graph: slice group %q must have exactly one parblock", n.Name)
			}
			if n.Shape != ShapeTask && n.N < 1 {
				return fmt.Errorf("graph: %s group %q has n=%d", n.Shape, n.Name, n.N)
			}
			if n.Shape == ShapeCrossdep && len(n.Children) == 0 {
				return fmt.Errorf("graph: crossdep group %q has no parblocks", n.Name)
			}
		case KindOption:
			if n.Name == "" {
				return fmt.Errorf("graph: unnamed option")
			}
			if !inManager {
				return fmt.Errorf("graph: option %q is not contained in a manager", n.Name)
			}
			if options[n.Name] {
				return fmt.Errorf("graph: duplicate option %q", n.Name)
			}
			options[n.Name] = true
		case KindManager:
			if n.Name == "" {
				return fmt.Errorf("graph: unnamed manager")
			}
			if n.Queue != "" {
				if !queues[n.Queue] {
					return fmt.Errorf("graph: manager %q polls undeclared queue %q", n.Name, n.Queue)
				}
				if other, ok := pollers[n.Queue]; ok {
					return fmt.Errorf("graph: queue %q is polled by managers %q and %q", n.Queue, other, n.Name)
				}
				pollers[n.Queue] = n.Name
			}
			inManager = true
		}
		for _, c := range n.Children {
			if err := check(c, inManager); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(p.Root, false); err != nil {
		return err
	}
	if err := p.validateFormats(); err != nil {
		return err
	}

	// Manager bindings may only target options inside that manager's own
	// subtree (the container keeps its subgraph consistent, §3.4).
	for _, m := range p.Managers() {
		local := map[string]bool{}
		Walk(m, func(n *Node) {
			if n.Kind == KindOption {
				local[n.Name] = true
			}
		})
		for _, bind := range m.Bindings {
			if bind.Event == "" {
				return fmt.Errorf("graph: manager %q has a binding without an event name", m.Name)
			}
			for _, a := range bind.Actions {
				switch a.Kind {
				case ActionEnable, ActionDisable, ActionToggle:
					if !local[a.Option] {
						return fmt.Errorf("graph: manager %q binds event %q to option %q outside its subtree", m.Name, bind.Event, a.Option)
					}
				case ActionForward:
					if !queues[a.Queue] {
						return fmt.Errorf("graph: manager %q forwards event %q to undeclared queue %q", m.Name, bind.Event, a.Queue)
					}
				}
			}
		}
	}

	if catalog != nil {
		for s := range streams {
			if writers[s] == 0 {
				return fmt.Errorf("graph: stream %q has no writer", s)
			}
			if readers[s] == 0 {
				return fmt.Errorf("graph: stream %q has no reader", s)
			}
		}
	}
	return nil
}
