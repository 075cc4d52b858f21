package graph

import (
	"strings"
	"testing"
)

// valCatalog extends the shared fakeCatalog with a "work" class for
// the error-path table below.
var valCatalog = fakeCatalog{
	"src":  {{}, {"out"}},
	"work": {{"in"}, {"out"}},
	"sink": {{"in"}, {}},
}

func comp(name, class string, ports Ports) *Node {
	return &Node{Kind: KindComponent, Name: name, Class: class, Ports: ports}
}

func seq(children ...*Node) *Node { return &Node{Kind: KindSeq, Children: children} }

// TestValidateErrors drives every distinct Validate error return with a
// minimal offending program.
func TestValidateErrors(t *testing.T) {
	// base returns a valid single-stream pipeline to mutate.
	base := func() *Program {
		return &Program{
			Name:    "t",
			Streams: []StreamDecl{{Name: "a"}},
			Root: seq(
				comp("s", "src", Ports{"out": "a"}),
				comp("k", "sink", Ports{"in": "a"}),
			),
		}
	}

	tests := []struct {
		name    string
		catalog Catalog
		mutate  func(p *Program)
		want    string
	}{
		{
			name:   "no body",
			mutate: func(p *Program) { p.Root = nil },
			want:   "has no body",
		},
		{
			name:   "unnamed stream",
			mutate: func(p *Program) { p.Streams = append(p.Streams, StreamDecl{}) },
			want:   "unnamed stream",
		},
		{
			name:   "duplicate stream",
			mutate: func(p *Program) { p.Streams = append(p.Streams, StreamDecl{Name: "a"}) },
			want:   `duplicate stream "a"`,
		},
		{
			name:   "duplicate queue",
			mutate: func(p *Program) { p.Queues = []string{"q", "q"} },
			want:   `duplicate event queue "q"`,
		},
		{
			name:   "component without class",
			mutate: func(p *Program) { p.Root.Children[0].Class = "" },
			want:   "has no class",
		},
		{
			name:   "component without name",
			mutate: func(p *Program) { p.Root.Children[0].Name = "" },
			want:   "has no name",
		},
		{
			name:   "undeclared stream",
			mutate: func(p *Program) { p.Root.Children[0].Ports = Ports{"out": "ghost"} },
			want:   `undeclared stream "ghost"`,
		},
		{
			name: "slice group arity",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children,
					&Node{Kind: KindPar, Shape: ShapeSlice, N: 2, Children: []*Node{
						seq(comp("w1", "work", Ports{"in": "a", "out": "a"})),
						seq(comp("w2", "work", Ports{"in": "a", "out": "a"})),
					}})
			},
			want: "exactly one parblock",
		},
		{
			name: "zero replication",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children,
					&Node{Kind: KindPar, Shape: ShapeSlice, N: 0, Children: []*Node{
						seq(comp("w1", "work", Ports{"in": "a", "out": "a"})),
					}})
			},
			want: "has n=0",
		},
		{
			name: "crossdep without parblocks",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children,
					&Node{Kind: KindPar, Shape: ShapeCrossdep, N: 2})
			},
			want: "no parblocks",
		},
		{
			name: "unnamed option",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{
					Kind: KindManager, Name: "m", Children: []*Node{{Kind: KindOption}},
				})
			},
			want: "unnamed option",
		},
		{
			name: "option outside manager",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{Kind: KindOption, Name: "o"})
			},
			want: "not contained in a manager",
		},
		{
			name: "duplicate option",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{
					Kind: KindManager, Name: "m", Children: []*Node{
						{Kind: KindOption, Name: "o"},
						{Kind: KindOption, Name: "o"},
					},
				})
			},
			want: `duplicate option "o"`,
		},
		{
			name: "unnamed manager",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{Kind: KindManager})
			},
			want: "unnamed manager",
		},
		{
			name: "undeclared queue",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{Kind: KindManager, Name: "m", Queue: "ghost"})
			},
			want: `undeclared queue "ghost"`,
		},
		{
			name: "queue polled by two managers",
			mutate: func(p *Program) {
				p.Queues = []string{"q"}
				p.Root.Children = append(p.Root.Children,
					&Node{Kind: KindManager, Name: "m1", Queue: "q"},
					&Node{Kind: KindManager, Name: "m2", Queue: "q"})
			},
			want: `queue "q" is polled by managers "m1" and "m2"`,
		},
		{
			name: "binding without event",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{
					Kind: KindManager, Name: "m",
					Bindings: []EventBinding{{Actions: []EventAction{{Kind: ActionToggle, Option: "o"}}}},
					Children: []*Node{{Kind: KindOption, Name: "o"}},
				})
			},
			want: "without an event name",
		},
		{
			name: "unscoped option binding",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children,
					&Node{
						Kind: KindManager, Name: "m1",
						Bindings: []EventBinding{On("ev", ActionToggle, "other")},
					},
					&Node{
						Kind: KindManager, Name: "m2",
						Children: []*Node{{Kind: KindOption, Name: "other"}},
					})
			},
			want: `option "other" outside its subtree`,
		},
		{
			name: "forward to undeclared queue",
			mutate: func(p *Program) {
				p.Root.Children = append(p.Root.Children, &Node{
					Kind: KindManager, Name: "m",
					Bindings: []EventBinding{On("ev", ActionForward, "ghost")},
				})
			},
			want: `undeclared queue "ghost"`,
		},
		{
			name:    "unknown class",
			catalog: valCatalog,
			mutate:  func(p *Program) { p.Root.Children[0].Class = "mystery" },
			want:    `unknown class "mystery"`,
		},
		{
			name:    "missing input port",
			catalog: valCatalog,
			mutate:  func(p *Program) { p.Root.Children[1].Ports = Ports{} },
			want:    `missing input port "in"`,
		},
		{
			name:    "missing output port",
			catalog: valCatalog,
			mutate:  func(p *Program) { p.Root.Children[0].Ports = Ports{} },
			want:    `missing output port "out"`,
		},
		{
			name:    "unknown port",
			catalog: valCatalog,
			mutate: func(p *Program) {
				p.Root.Children[0].Ports = Ports{"out": "a", "aux": "a"}
			},
			want: `unknown port "aux"`,
		},
		{
			name:    "stream without writer",
			catalog: valCatalog,
			mutate: func(p *Program) {
				p.Streams = append(p.Streams, StreamDecl{Name: "b"})
				p.Root.Children = append(p.Root.Children, comp("k2", "sink", Ports{"in": "b"}))
			},
			want: `stream "b" has no writer`,
		},
		{
			name:    "stream without reader",
			catalog: valCatalog,
			mutate: func(p *Program) {
				p.Streams = append(p.Streams, StreamDecl{Name: "b"})
				p.Root.Children = append(p.Root.Children, comp("s2", "src", Ports{"out": "b"}))
			},
			want: `stream "b" has no reader`,
		},
		{
			name: "malformed stream format",
			mutate: func(p *Program) {
				p.Streams[0].Format = "yuv420(64"
			},
			want: `stream "a": format=`,
		},
		{
			name: "non-ground stream format",
			mutate: func(p *Program) {
				p.Streams[0].Format = "yuv420(W,64)"
			},
			want: "must be ground",
		},
		{
			name: "atom in format dimension",
			mutate: func(p *Program) {
				p.Streams[0].Format = "yuv420(64,gray)"
			},
			want: "numeric position",
		},
		{
			name: "malformed interface override",
			mutate: func(p *Program) {
				p.Root.Children[0].Params = Params{InterfaceParam: "out L(W,H)"}
			},
			want: `component "s": interface=`,
		},
		{
			name: "interface names unconnected port",
			mutate: func(p *Program) {
				p.Root.Children[0].Params = Params{InterfaceParam: "side: F"}
			},
			want: `names port "side" which the component does not connect`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			err := p.Validate(tc.catalog)
			if err == nil {
				t.Fatalf("Validate accepted the program, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not contain %q", err, tc.want)
			}
		})
	}

	// The unmutated base passes both with and without a catalog.
	if err := base().Validate(nil); err != nil {
		t.Fatalf("base program invalid without catalog: %v", err)
	}
	if err := base().Validate(valCatalog); err != nil {
		t.Fatalf("base program invalid with catalog: %v", err)
	}
}
