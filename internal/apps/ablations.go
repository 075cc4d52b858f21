package apps

import (
	"fmt"
	"strings"

	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label  string
	Cycles int64
	Extra  string // optional annotation (e.g. stall cycles)
}

// AblationTable is one design-choice study.
type AblationTable struct {
	Name string
	Doc  string
	Rows []AblationRow
}

// Format renders the table.
func (t *AblationTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Doc)
	base := t.Rows[0].Cycles
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-28s %12.1f Mcycles  (%+6.1f%%)", r.Label, float64(r.Cycles)/1e6,
			100*(float64(r.Cycles)/float64(base)-1))
		if r.Extra != "" {
			fmt.Fprintf(&b, "  %s", r.Extra)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunAblations measures the design choices DESIGN.md calls out, at the
// given node count, using the paper-geometry applications in workless
// mode (costs only). Each table's first row is the paper's choice.
func RunAblations(cores int) ([]AblationTable, error) {
	var out []AblationTable

	// Pipeline depth (paper: 5 concurrent iterations).
	depth := AblationTable{
		Name: "pipeline-depth",
		Doc:  "concurrently scheduled iterations (paper: 5), Blur-5x5",
	}
	for _, d := range []int{5, 2, 1} {
		v := NewBlurVariant("blur", DefaultBlur(5))
		rep, _, err := v.Run(SimConfig(cores, RunOptions{Workless: true, Pipeline: d}))
		if err != nil {
			return nil, err
		}
		depth.Rows = append(depth.Rows, AblationRow{Label: fmt.Sprintf("depth=%d", d), Cycles: rep.Cycles})
	}
	out = append(out, depth)

	// Slice count (paper: 8 for PiP).
	slices := AblationTable{
		Name: "slice-count",
		Doc:  "data-parallel slices of the PiP downscaler/blender (paper: 8)",
	}
	for _, s := range []int{8, 2, 4, 16, 32} {
		cfg := DefaultPiP(1)
		cfg.Slices = s
		v := NewPiPVariant("pip", cfg)
		rep, _, err := v.Run(SimConfig(cores, RunOptions{Workless: true}))
		if err != nil {
			return nil, err
		}
		slices.Rows = append(slices.Rows, AblationRow{Label: fmt.Sprintf("slices=%d", s), Cycles: rep.Cycles})
	}
	out = append(out, slices)

	// Crossdep vs SP barrier (paper §3.3/§4: Blur's two phases).
	cross := AblationTable{
		Name: "crossdep-vs-barrier",
		Doc:  "Blur phase coupling: Figure-5 cross dependencies vs an SP synchronisation point",
	}
	for _, useCross := range []bool{true, false} {
		prog := blurAblationProgram(useCross)
		app, err := hinch.NewApp(prog, components.DefaultRegistry(), hinch.Config{
			Backend: hinch.BackendSim, Cores: cores, Workless: true,
		})
		if err != nil {
			return nil, err
		}
		rep, err := app.Run(96)
		if err != nil {
			return nil, err
		}
		label := "crossdep (paper)"
		if !useCross {
			label = "SP barrier"
		}
		cross.Rows = append(cross.Rows, AblationRow{Label: label, Cycles: rep.Cycles})
	}
	out = append(out, cross)

	// Stream capacity: the streams share one buffer window of that many
	// sets, one per iteration in flight (see DESIGN.md §5).
	capTab := AblationTable{
		Name: "stream-capacity",
		Doc:  "one buffer window shared by the streams, that many sets (one per iteration in flight), PiP-1",
	}
	for _, c := range []int{3, 1, 2, 5} {
		v := NewPiPVariant("pip", DefaultPiP(1))
		cfg := SimConfig(cores, RunOptions{Workless: true})
		cfg.StreamCapacity = c
		rep, _, err := v.Run(cfg)
		if err != nil {
			return nil, err
		}
		capTab.Rows = append(capTab.Rows, AblationRow{Label: fmt.Sprintf("capacity=%d", c), Cycles: rep.Cycles})
	}
	out = append(out, capTab)

	// Eager vs lazy option pre-creation (paper §3.4).
	eager := AblationTable{
		Name: "option-precreation",
		Doc:  "create option components at event detection (paper, eager) vs inside the quiescent window",
	}
	for _, lazy := range []bool{false, true} {
		cfg := DefaultPiP(1)
		cfg.Reconfig = true
		v := NewPiPVariant("pip-12", cfg)
		rcfg := SimConfig(cores, RunOptions{Workless: true})
		rcfg.LazyCreation = lazy
		rep, _, err := v.Run(rcfg)
		if err != nil {
			return nil, err
		}
		label := "eager (paper)"
		if lazy {
			label = "lazy"
		}
		eager.Rows = append(eager.Rows, AblationRow{
			Label:  label,
			Cycles: rep.Cycles,
			Extra:  fmt.Sprintf("reconfig stall %d cycles over %d reconfigs", rep.ReconfigStall, rep.Reconfigs),
		})
	}
	out = append(out, eager)

	return out, nil
}

// blurAblationProgram builds Blur with either the paper's crossdep
// coupling or a plain SP barrier between the phases.
func blurAblationProgram(crossdep bool) *graph.Program {
	const w, h, slices, frames = 360, 288, 9, 96
	gb := graph.NewBuilder("blur-ablate")
	gb.FrameStream("v", w, h)
	gb.FrameStream("t", w, h)
	gb.FrameStream("o", w, h)
	hNode := gb.Component("h", "blurh", graph.Ports{"in": "v", "out": "t"}, graph.Params{"taps": "5"})
	vNode := gb.Component("vv", "blurv", graph.Ports{"in": "t", "out": "o"}, graph.Params{"taps": "5"})
	var body *graph.Node
	if crossdep {
		body = gb.Parallel(graph.ShapeCrossdep, slices, hNode, vNode)
	} else {
		body = gb.Seq(
			gb.Parallel(graph.ShapeSlice, slices, hNode),
			gb.Parallel(graph.ShapeSlice, slices, vNode),
		)
	}
	gb.Body(
		gb.Component("src", "videosrc", graph.Ports{"out": "v"},
			graph.Params{"width": "360", "height": "288", "frames": fmt.Sprint(frames)}),
		body,
		gb.Component("snk", "videosink", graph.Ports{"in": "o"}, nil),
	)
	return gb.MustProgram()
}
