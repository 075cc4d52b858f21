// Package graph defines the elaborated intermediate representation of
// an XSPCL application — the Series-Parallel Contention (SPC) tree of
// components the coordination language describes — and compiles it into
// per-iteration task DAGs ("plans") that the Hinch runtime executes in
// data-flow style.
//
// The tree is produced by the xspcl elaborator (procedures expanded,
// parameters substituted) or built programmatically via the Builder.
// A Plan is the flattened job graph for one iteration under a given
// reconfiguration state (set of enabled options); the runtime rebuilds
// the plan whenever a manager toggles an option.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// ReconfigParam is the reserved initialization-parameter key carrying a
// component's initial reconfiguration request (paper §3.1: a component
// tag "may be used to give the component a reconfiguration request upon
// creation"). The runtime delivers its value through the component's
// reconfiguration interface before the first Run.
const ReconfigParam = "@reconfig"

// Kind discriminates tree node types.
type Kind int

// Tree node kinds.
const (
	KindComponent Kind = iota // leaf: one component instance
	KindSeq                   // children scheduled one after another
	KindPar                   // children (parblocks) scheduled in parallel
	KindOption                // a subgraph that can be enabled/disabled at runtime
	KindManager               // reconfiguration container with an event queue
)

// String returns the node kind name.
func (k Kind) String() string {
	switch k {
	case KindComponent:
		return "component"
	case KindSeq:
		return "seq"
	case KindPar:
		return "parallel"
	case KindOption:
		return "option"
	case KindManager:
		return "manager"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Shape is the parallelism shape of a KindPar node (paper §3.3).
type Shape int

// The three parallel shapes of XSPCL.
const (
	// ShapeTask runs each parblock in parallel; successors run when all
	// parblocks have finished.
	ShapeTask Shape = iota
	// ShapeSlice replicates its single parblock N times; each copy is
	// told its slice index and operates on its horizontal image band.
	ShapeSlice
	// ShapeCrossdep replicates every parblock N times with the
	// cross-slice dependency pattern of the paper's Figure 5: copy
	// (block b, slice i) runs once copies (b−1, i−1), (b−1, i) and
	// (b−1, i+1) have finished. This deliberately breaks the SP
	// discipline for efficiency.
	ShapeCrossdep
)

// String returns the XSPCL shape attribute value.
func (s Shape) String() string {
	switch s {
	case ShapeTask:
		return "task"
	case ShapeSlice:
		return "slice"
	case ShapeCrossdep:
		return "crossdep"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// ParseShape converts an XSPCL shape attribute to a Shape.
func ParseShape(s string) (Shape, error) {
	switch s {
	case "task", "":
		return ShapeTask, nil
	case "slice":
		return ShapeSlice, nil
	case "crossdep":
		return ShapeCrossdep, nil
	}
	return 0, fmt.Errorf("graph: unknown parallel shape %q", s)
}

// ActionKind enumerates what a manager may do in response to an event
// (paper §3.4).
type ActionKind int

// Manager event actions.
const (
	ActionEnable   ActionKind = iota // enable an option
	ActionDisable                    // disable an option
	ActionToggle                     // toggle an option
	ActionForward                    // forward the event to another queue
	ActionReconfig                   // send a reconfiguration request to all components in the subgraph
)

// String returns the XSPCL action attribute value.
func (a ActionKind) String() string {
	switch a {
	case ActionEnable:
		return "enable"
	case ActionDisable:
		return "disable"
	case ActionToggle:
		return "toggle"
	case ActionForward:
		return "forward"
	case ActionReconfig:
		return "reconfig"
	}
	return fmt.Sprintf("ActionKind(%d)", int(a))
}

// ParseAction converts an XSPCL action attribute to an ActionKind.
func ParseAction(s string) (ActionKind, error) {
	switch s {
	case "enable":
		return ActionEnable, nil
	case "disable":
		return ActionDisable, nil
	case "toggle":
		return ActionToggle, nil
	case "forward":
		return ActionForward, nil
	case "reconfig":
		return ActionReconfig, nil
	}
	return 0, fmt.Errorf("graph: unknown event action %q", s)
}

// EventAction is one action bound to an event in a manager.
type EventAction struct {
	Kind    ActionKind
	Option  string // enable/disable/toggle target
	Queue   string // forward target
	Request string // reconfiguration request payload
}

// EventBinding maps an event name to the actions a manager performs.
type EventBinding struct {
	Event   string
	Actions []EventAction
}

// Node is one node of the elaborated SPC tree.
type Node struct {
	Kind Kind

	// Name is the instance name: required for components, options and
	// managers; optional elsewhere.
	Name string

	// Component fields.
	Class  string            // registry class of the component
	Params map[string]string // initialization parameters
	Ports  map[string]string // port name -> stream name

	// Parallel fields.
	Shape Shape
	N     int // replication count for slice/crossdep

	// Option fields.
	DefaultOn bool

	// Manager fields.
	Queue    string // event queue the manager polls
	Bindings []EventBinding

	Children []*Node
}

// StreamDecl declares a named stream of the application. The element
// description (Type and geometry) tells the runtime what buffer to
// pre-allocate in each buffer set; the graph layer itself does not
// interpret it beyond carrying it.
type StreamDecl struct {
	Name string
	// Type names the element kind: "frame" (a W×H YUV 4:2:0 frame),
	// "coeff" (a W×H DCT coefficient frame), "packet" (a variable-size
	// byte packet with capacity estimate Cap), or "" for untyped slots.
	Type string
	W, H int
	Cap  int // capacity estimate in bytes for packet streams

	// Format is an optional declared format term for the elements
	// flowing on this stream, in the internal/format term grammar
	// (e.g. "yuv420(720,576)"). It must be ground; the formats
	// analyzer pass reconciles it against component interface
	// signatures.
	Format string
}

// Program is an elaborated XSPCL application.
type Program struct {
	Name    string
	Root    *Node
	Streams []StreamDecl
	Queues  []string // declared event queues
}

// StreamNames returns the declared stream names in order.
func (p *Program) StreamNames() []string {
	out := make([]string, len(p.Streams))
	for i, s := range p.Streams {
		out[i] = s.Name
	}
	return out
}

// Walk visits every node of the tree in preorder.
func Walk(n *Node, visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		Walk(c, visit)
	}
}

// Components returns all component leaves in preorder.
func (p *Program) Components() []*Node {
	var out []*Node
	Walk(p.Root, func(n *Node) {
		if n.Kind == KindComponent {
			out = append(out, n)
		}
	})
	return out
}

// Options returns the names of all options in preorder, with their
// default states.
func (p *Program) Options() map[string]bool {
	out := map[string]bool{}
	Walk(p.Root, func(n *Node) {
		if n.Kind == KindOption {
			out[n.Name] = n.DefaultOn
		}
	})
	return out
}

// Managers returns all manager nodes in preorder.
func (p *Program) Managers() []*Node {
	var out []*Node
	Walk(p.Root, func(n *Node) {
		if n.Kind == KindManager {
			out = append(out, n)
		}
	})
	return out
}

// IsSP reports whether the program adheres to the Series-Parallel
// paradigm: true unless it uses any crossdep group (paper §3.3: the
// crossdep structure "does not adhere to the Series-Parallel
// paradigm").
func (p *Program) IsSP() bool {
	sp := true
	Walk(p.Root, func(n *Node) {
		if n.Kind == KindPar && n.Shape == ShapeCrossdep {
			sp = false
		}
	})
	return sp
}

// String renders the tree in a stable, human-readable indented form,
// used for golden tests and the xspclc -dump mode.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, s := range p.Streams {
		fmt.Fprintf(&b, "stream %s", s.Name)
		if s.Format != "" {
			fmt.Fprintf(&b, " format=%s", s.Format)
		}
		b.WriteByte('\n')
	}
	for _, q := range p.Queues {
		fmt.Fprintf(&b, "queue %s\n", q)
	}
	dumpNode(&b, p.Root, 0)
	return b.String()
}

func dumpNode(b *strings.Builder, n *Node, depth int) {
	if n == nil {
		return
	}
	ind := strings.Repeat("  ", depth)
	switch n.Kind {
	case KindComponent:
		fmt.Fprintf(b, "%scomponent %s class=%s", ind, n.Name, n.Class)
		for _, k := range sortedKeys(n.Ports) {
			fmt.Fprintf(b, " %s=%s", k, n.Ports[k])
		}
		for _, k := range sortedKeys(n.Params) {
			fmt.Fprintf(b, " param:%s=%s", k, n.Params[k])
		}
		b.WriteByte('\n')
	case KindSeq:
		fmt.Fprintf(b, "%sseq\n", ind)
	case KindPar:
		fmt.Fprintf(b, "%sparallel shape=%s", ind, n.Shape)
		if n.Shape != ShapeTask {
			fmt.Fprintf(b, " n=%d", n.N)
		}
		b.WriteByte('\n')
	case KindOption:
		state := "off"
		if n.DefaultOn {
			state = "on"
		}
		fmt.Fprintf(b, "%soption %s default=%s\n", ind, n.Name, state)
	case KindManager:
		fmt.Fprintf(b, "%smanager %s queue=%s\n", ind, n.Name, n.Queue)
		for _, bind := range n.Bindings {
			for _, a := range bind.Actions {
				fmt.Fprintf(b, "%s  on %s -> %s", ind, bind.Event, a.Kind)
				if a.Option != "" {
					fmt.Fprintf(b, " option=%s", a.Option)
				}
				if a.Queue != "" {
					fmt.Fprintf(b, " queue=%s", a.Queue)
				}
				if a.Request != "" {
					fmt.Fprintf(b, " request=%s", a.Request)
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, c := range n.Children {
		dumpNode(b, c, depth+1)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
