package apps

import (
	"fmt"
	"slices"
	"strings"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/spacecake"
)

// RunOptions tune an experiment run.
type RunOptions struct {
	// Pipeline is the number of concurrently scheduled iterations
	// (paper: 5). 0 uses the default.
	Pipeline int
	// Workless skips the kernels' real computation and keeps only cost
	// accounting. Output checksums are then meaningless; figures keep
	// their shape because all costs come from the op-count models.
	Workless bool
	// Verify additionally compares the XSPCL output checksum against
	// the sequential baseline (Fig 8 only; incompatible with Workless).
	Verify bool
}

// SimConfig builds the simulation configuration used by all experiments.
func SimConfig(cores int, opt RunOptions) hinch.Config {
	return hinch.Config{
		Backend:       hinch.BackendSim,
		Cores:         cores,
		PipelineDepth: opt.Pipeline,
		Workless:      opt.Workless,
	}
}

// Fig8Row is one bar pair of Figure 8 (sequential overhead).
type Fig8Row struct {
	App         string
	SeqCycles   int64
	XSPCLCycles int64
	OverheadPct float64 // (XSPCL/seq - 1) * 100
	// The §4.1 profiling claim: cache misses of both versions.
	SeqL2Misses   int64
	XSPCLL2Misses int64
	// ChecksumOK reports output equality when opt.Verify was set.
	ChecksumOK bool
}

// Fig8Variants returns the six static variants of Figure 8 in paper
// order.
func Fig8Variants() []*Variant {
	return []*Variant{PiP1(), PiP2(), JPiP1(), JPiP2(), Blur3(), Blur5()}
}

// RunFig8 reproduces Figure 8: each application's XSPCL version on one
// simulated core versus its hand-written sequential version.
func RunFig8(variants []*Variant, opt RunOptions) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, v := range variants {
		if v.Seq == nil {
			return nil, fmt.Errorf("apps: %s has no sequential baseline", v.Name)
		}
		seq, err := v.Seq()
		if err != nil {
			return nil, fmt.Errorf("%s (seq): %w", v.Name, err)
		}
		rep, sink, err := v.Run(SimConfig(1, opt))
		if err != nil {
			return nil, fmt.Errorf("%s (xspcl): %w", v.Name, err)
		}
		row := Fig8Row{
			App:           v.Name,
			SeqCycles:     seq.Cycles,
			XSPCLCycles:   rep.Cycles,
			OverheadPct:   100 * (float64(rep.Cycles)/float64(seq.Cycles) - 1),
			SeqL2Misses:   seq.Cache.L2Misses,
			XSPCLL2Misses: rep.Cache.L2Misses,
			ChecksumOK:    true,
		}
		if opt.Verify && !opt.Workless {
			row.ChecksumOK = sink != nil && sink.Checksum() == seq.Checksum
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9Point is one measurement of a speedup curve.
type Fig9Point struct {
	Nodes   int
	Cycles  int64
	Speedup float64
}

// Fig9Series is one application's speedup curve.
type Fig9Series struct {
	App string
	// BaseCycles is the fastest sequential version (paper: "All speedup
	// measurements are relative to the fastest sequential version of
	// the application. For Blur, this is the parallel version" run at
	// one node).
	BaseCycles int64
	Points     []Fig9Point
}

// RunFig9 reproduces Figure 9: speedup of every static variant on 1..
// maxNodes simulated cores, relative to the fastest sequential version.
func RunFig9(variants []*Variant, maxNodes int, opt RunOptions) ([]Fig9Series, error) {
	if maxNodes < 1 || maxNodes > spacecake.MaxCores {
		return nil, fmt.Errorf("apps: maxNodes %d outside 1..%d", maxNodes, spacecake.MaxCores)
	}
	var out []Fig9Series
	for _, v := range variants {
		series := Fig9Series{App: v.Name}
		var oneNode int64
		for n := 1; n <= maxNodes; n++ {
			rep, _, err := v.Run(SimConfig(n, opt))
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", v.Name, n, err)
			}
			if n == 1 {
				oneNode = rep.Cycles
			}
			series.Points = append(series.Points, Fig9Point{Nodes: n, Cycles: rep.Cycles})
		}
		series.BaseCycles = oneNode
		if v.Seq != nil {
			seq, err := v.Seq()
			if err != nil {
				return nil, err
			}
			if seq.Cycles < series.BaseCycles {
				series.BaseCycles = seq.Cycles
			}
		}
		for i := range series.Points {
			series.Points[i].Speedup = float64(series.BaseCycles) / float64(series.Points[i].Cycles)
		}
		out = append(out, series)
	}
	return out, nil
}

// Fig10Point is one measurement of a reconfiguration-overhead curve.
// StaticAvg is the static pair's run time, each weighted by the share
// of iterations the reconfigurable run spent in its configuration.
type Fig10Point struct {
	Nodes       int
	Cycles      int64
	StaticAvg   int64
	OverheadPct float64
	Reconfigs   int64
}

// Fig10Series is one reconfigurable application's overhead curve.
type Fig10Series struct {
	App    string
	Points []Fig10Point
}

// RunFig10 reproduces Figure 10: the run time of each reconfigurable
// variant divided by the average of its two static counterparts, each
// weighted by the share of iterations the reconfigurable run spent in
// its configuration, on 1..maxNodes cores.
func RunFig10(variants []*Variant, maxNodes int, opt RunOptions) ([]Fig10Series, error) {
	if maxNodes < 1 || maxNodes > spacecake.MaxCores {
		return nil, fmt.Errorf("apps: maxNodes %d outside 1..%d", maxNodes, spacecake.MaxCores)
	}
	var out []Fig10Series
	for _, v := range variants {
		if len(v.StaticPair) == 0 {
			return nil, fmt.Errorf("apps: %s is not a reconfigurable variant", v.Name)
		}
		statics := make([]*Variant, len(v.StaticPair))
		for i, name := range v.StaticPair {
			sv, err := VariantByName(name)
			if err != nil {
				return nil, err
			}
			statics[i] = sv
		}
		series, err := RunFig10With(v, statics, maxNodes, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, *series)
	}
	return out, nil
}

// RunFig10With measures one reconfigurable variant against an explicit
// static pair: statics[0] runs the variant's initial configuration,
// statics[1] the one with its default-off option on.
func RunFig10With(v *Variant, statics []*Variant, maxNodes int, opt RunOptions) (*Fig10Series, error) {
	if len(statics) != 2 {
		return nil, fmt.Errorf("apps: %s: %d static variants, want a pair", v.Name, len(statics))
	}
	series := &Fig10Series{App: v.Name}
	for n := 1; n <= maxNodes; n++ {
		app, err := v.NewApp(SimConfig(n, opt))
		var rep *hinch.Report
		if err == nil {
			rep, err = app.Run(v.Frames)
		}
		if err != nil {
			return nil, fmt.Errorf("%s @%d: %w", v.Name, n, err)
		}
		duty, err := offOptionDuty(app, rep)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		var cycles [2]float64
		for i, sv := range statics {
			srep, _, err := sv.Run(SimConfig(n, opt))
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", sv.Name, n, err)
			}
			cycles[i] = float64(srep.Cycles)
		}
		avg := (1-duty)*cycles[0] + duty*cycles[1]
		series.Points = append(series.Points, Fig10Point{
			Nodes:       n,
			Cycles:      rep.Cycles,
			StaticAvg:   int64(avg),
			OverheadPct: 100 * (float64(rep.Cycles)/avg - 1),
			Reconfigs:   rep.Reconfigs,
		})
	}
	return series, nil
}

// offOptionDuty is the share of a finished run's iterations in which
// the program's one default-off option ran: the executed jobs of one of
// its component tasks over the iterations counted.
func offOptionDuty(app *hinch.App, rep *hinch.Report) (float64, error) {
	var off []string
	for name, on := range app.Program().Options() {
		if !on {
			off = append(off, name)
		}
	}
	if len(off) != 1 {
		return 0, fmt.Errorf("%d default-off options %v, want one", len(off), off)
	}
	for i, t := range app.Plan().Tasks {
		if t.Role == graph.RoleComponent && slices.Contains(t.Options, off[0]) {
			return float64(rep.Stages[i].Jobs) / float64(rep.Iterations), nil
		}
	}
	return 0, fmt.Errorf("option %q has no component task", off[0])
}

// Fig10Variants returns the reconfigurable variants of Figure 10.
func Fig10Variants() []*Variant {
	return []*Variant{PiP12(), JPiP12(), Blur35()}
}

// FormatFig8 renders Figure 8 as a text table (cycles ×10⁶, matching
// the paper's axis).
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: sequential overhead (XSPCL vs hand-written sequential, 1 node)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %10s %12s %12s\n", "app", "seq Mcycles", "xspcl Mcycles", "overhead", "seq L2miss", "xspcl L2miss")
	for _, r := range rows {
		check := ""
		if !r.ChecksumOK {
			check = "  OUTPUT MISMATCH"
		}
		fmt.Fprintf(&b, "%-10s %14.1f %14.1f %9.1f%% %12d %12d%s\n",
			r.App, float64(r.SeqCycles)/1e6, float64(r.XSPCLCycles)/1e6, r.OverheadPct,
			r.SeqL2Misses, r.XSPCLL2Misses, check)
	}
	return b.String()
}

// FormatFig9 renders Figure 9 as a text table of speedups per node
// count.
func FormatFig9(series []Fig9Series) string {
	var b strings.Builder
	b.WriteString("Figure 9: speedup vs nodes (relative to fastest sequential version)\n")
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s", "app")
	for _, p := range series[0].Points {
		fmt.Fprintf(&b, "%7d", p.Nodes)
	}
	b.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%-10s", s.App)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%7.2f", p.Speedup)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFig10 renders Figure 10 as a text table of reconfiguration
// overhead percentages per node count.
func FormatFig10(series []Fig10Series) string {
	var b strings.Builder
	b.WriteString("Figure 10: reconfiguration overhead (runtime / duty-weighted static average - 1)\n")
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s", "app")
	for _, p := range series[0].Points {
		fmt.Fprintf(&b, "%8d", p.Nodes)
	}
	b.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%-10s", s.App)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%7.1f%%", p.OverheadPct)
		}
		b.WriteString("\n")
	}
	return b.String()
}
