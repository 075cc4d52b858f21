package conformance

import (
	"fmt"

	"xspcl/internal/graph"
)

// BreakKind selects one way GenerateBroken sabotages a generated
// program. Each kind plants a defect the static analyzer must detect —
// the negative half of the analyzer's conformance cross-validation
// (the positive half is the precheck in Check: generated programs
// must come out with every read defined).
type BreakKind int

const (
	// BreakReadBeforeWrite sequences a reader before its stream's only
	// other writer: the read sees the previous iteration's data.
	BreakReadBeforeWrite BreakKind = iota
	// BreakUnorderedWriter puts a reader and its stream's only writer
	// in one parallel group: whether the read sees this iteration's
	// data depends on the schedule.
	BreakUnorderedWriter
	// BreakStarvedReader leaves a reader outside an option whose writer
	// is inside it and disabled by default: no writer in the initial
	// configuration.
	BreakStarvedReader
	// BreakUnreachableOption adds a default-off option whose only
	// binding disables it: no reachable configuration ever enables it.
	BreakUnreachableOption
	// BreakFormatMismatch bridges two streams with conflicting declared
	// format terms through an identity-signature component: the format
	// solver must find the collision.
	BreakFormatMismatch

	// NumBreakKinds counts the kinds (for iteration in tests).
	NumBreakKinds
)

// String names the kind.
func (k BreakKind) String() string {
	switch k {
	case BreakReadBeforeWrite:
		return "read-before-write"
	case BreakUnorderedWriter:
		return "unordered-writer"
	case BreakStarvedReader:
		return "starved-reader"
	case BreakUnreachableOption:
		return "unreachable-option"
	case BreakFormatMismatch:
		return "format-mismatch"
	}
	return fmt.Sprintf("BreakKind(%d)", int(k))
}

// GenerateBroken builds the program for seed and then plants the given
// defect in it. The result is still structurally valid (it passes
// graph.Validate) but must be rejected by the analyzer; it is never
// meant to run. The planted defect reuses the generated program's sink
// stream, so it composes with whatever shape the seed produced.
func GenerateBroken(seed uint64, kind BreakKind) (*Gen, error) {
	g, err := Generate(seed)
	if err != nil {
		return nil, err
	}
	// The sink's input is a stream that every seed guarantees to exist,
	// with a live writer upstream.
	var spine string
	graph.Walk(g.Prog.Root, func(n *graph.Node) {
		if n.Kind == graph.KindComponent && n.Name == g.SinkName {
			spine = n.Ports["in"]
		}
	})
	if spine == "" {
		return nil, fmt.Errorf("conformance: seed %d: sink %q not found", seed, g.SinkName)
	}
	root := g.Prog.Root

	comp := func(name string, ports graph.Ports) *graph.Node {
		return &graph.Node{Kind: graph.KindComponent, Name: name, Class: "cwork",
			Ports: ports, Params: graph.Params{"stamp": "1"}}
	}

	switch kind {
	case BreakReadBeforeWrite:
		// blocked reads latebad; its only other writer (prod) is
		// sequenced strictly after it.
		g.Prog.Streams = append(g.Prog.Streams, graph.StreamDecl{Name: "latebad"})
		root.Children = append(root.Children,
			comp("blocked", graph.Ports{"in": "latebad", "out": "latebad"}),
			comp("prod", graph.Ports{"in": spine, "out": "latebad"}))

	case BreakUnorderedWriter:
		// uwrite and uread are siblings of one task-parallel group:
		// nothing orders uread after uwrite.
		g.Prog.Streams = append(g.Prog.Streams, graph.StreamDecl{Name: "ubad"})
		root.Children = append(root.Children, &graph.Node{Kind: graph.KindPar, Shape: graph.ShapeTask,
			Children: []*graph.Node{
				{Kind: graph.KindSeq, Children: []*graph.Node{
					comp("uwrite", graph.Ports{"in": spine, "out": "ubad"}),
				}},
				{Kind: graph.KindSeq, Children: []*graph.Node{
					{Kind: graph.KindComponent, Name: "uread", Class: "csink", Ports: graph.Ports{"in": "ubad"}},
				}},
			}})

	case BreakStarvedReader:
		// badsink reads sbad, whose only writer sits inside a
		// default-off option: unwritten in the initial configuration.
		g.Prog.Streams = append(g.Prog.Streams, graph.StreamDecl{Name: "sbad"})
		g.Prog.Queues = append(g.Prog.Queues, "qbad")
		mgr := &graph.Node{Kind: graph.KindManager, Name: "mbad", Queue: "qbad",
			Bindings: []graph.EventBinding{graph.On("ebad", graph.ActionEnable, "obad")},
			Children: []*graph.Node{
				{Kind: graph.KindOption, Name: "obad", DefaultOn: false, Children: []*graph.Node{
					comp("wbad", graph.Ports{"in": spine, "out": "sbad"}),
				}},
			}}
		root.Children = append(root.Children, mgr,
			&graph.Node{Kind: graph.KindComponent, Name: "badsink", Class: "csink",
				Ports: graph.Ports{"in": "sbad"}})

	case BreakUnreachableOption:
		// onever is off by default and its only binding disables it.
		g.Prog.Queues = append(g.Prog.Queues, "qnever")
		mgr := &graph.Node{Kind: graph.KindManager, Name: "mnever", Queue: "qnever",
			Bindings: []graph.EventBinding{graph.On("enever", graph.ActionDisable, "onever")},
			Children: []*graph.Node{
				{Kind: graph.KindOption, Name: "onever", DefaultOn: false, Children: []*graph.Node{
					comp("wnever", graph.Ports{"in": spine, "out": spine}),
				}},
			}}
		root.Children = append(root.Children, mgr)

	case BreakFormatMismatch:
		// fmta and fmtb declare incompatible ground formats, bridged by
		// cwork's identity signature (in: F; out: F): unification forces
		// both streams to one format, which cannot hold. Structurally
		// the program stays valid — each term parses and is ground; only
		// the whole-network solve exposes the collision.
		g.Prog.Streams = append(g.Prog.Streams,
			graph.StreamDecl{Name: "fmta", Format: "yuv420(64,64)"},
			graph.StreamDecl{Name: "fmtb", Format: "yuv420(32,64)"})
		root.Children = append(root.Children,
			comp("ffeed", graph.Ports{"in": spine, "out": "fmta"}),
			comp("fbridge", graph.Ports{"in": "fmta", "out": "fmtb"}),
			&graph.Node{Kind: graph.KindComponent, Name: "fmtsink", Class: "csink",
				Ports: graph.Ports{"in": "fmtb"}})

	default:
		return nil, fmt.Errorf("conformance: unknown break kind %d", int(kind))
	}

	if err := g.Prog.Validate(Registry()); err != nil {
		return nil, fmt.Errorf("conformance: seed %d (%s): broken program is structurally invalid: %w", seed, kind, err)
	}
	return g, nil
}
