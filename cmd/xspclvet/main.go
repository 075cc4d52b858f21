// Command xspclvet is the whole-program static analyzer for XSPCL
// specifications. It elaborates each input, enumerates every reachable
// option configuration, and reports undefined-read, reconfiguration,
// event-binding, fault-handling, replication and stream-format
// diagnoses (see internal/analysis, DESIGN.md §9 and §14). With -predict it also
// runs the SPC performance prediction (the PAM-SoC box of the paper's
// framework figure, internal/predict): per-iteration work and critical
// path estimated from the specification alone, the predicted speedup
// per node count, the node count that reaches 95% of the peak, and the
// width each replicate="auto" component takes on N nodes — the width
// the runtime resolves at load (predict.AutoWidths).
//
//	xspclvet app.xml another.xml     analyze specification files
//	xspclvet -builtin JPiP-45        analyze a built-in paper app
//	xspclvet -all                    analyze every built-in app
//	xspclvet -json app.xml           machine-readable report
//	xspclvet -formats app.xml        print the solved stream-format table
//	xspclvet -predict 9 app.xml      predicted speedup on 1..9 nodes
//	xspclvet -Wno-bindings app.xml   suppress one pass
//	xspclvet -Werror app.xml         warnings fail the build too
//
// Exit status is 1 when any input has error findings (or warnings
// under -Werror), 2 on usage or load failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xspcl/internal/analysis"
	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/predict"
	"xspcl/internal/xspcl"
)

// usefulFrac is the share of the peak predicted speedup at which
// -predict suggests a node count.
const usefulFrac = 0.95

func main() {
	builtin := flag.String("builtin", "", "analyze a built-in paper application (e.g. JPiP-45) instead of a file")
	all := flag.Bool("all", false, "analyze every built-in paper application")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	formats := flag.Bool("formats", false, "print the solved stream formats and inferred component parameters")
	overlap := flag.Int("overlap", analysis.DefaultOverlap, "iteration overlap the replication pass and -predict assume")
	predictN := flag.Int("predict", 0, "print the predicted speedup on 1..N nodes (text output only; 0 = off)")
	werror := flag.Bool("Werror", false, "treat warnings as errors")
	wno := map[string]*bool{}
	for _, pass := range analysis.Passes {
		wno[pass] = flag.Bool("Wno-"+pass, false, "disable the "+pass+" pass")
	}
	flag.Parse()

	disable := map[string]bool{}
	for pass, off := range wno {
		if *off {
			disable[pass] = true
		}
	}
	opt := analysis.Options{
		Catalog: components.DefaultRegistry(),
		Overlap: *overlap,
		Disable: disable,
	}

	inputs, err := collect(*builtin, *all, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failed := false
	var reports []*analysis.Report
	for _, in := range inputs {
		rep, err := analysis.Analyze(in.prog, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", in.name, err)
			os.Exit(2)
		}
		rep.Program = in.name
		reports = append(reports, rep)
		if !*jsonOut {
			analysis.Render(os.Stdout, rep)
			if *formats {
				analysis.RenderFormats(os.Stdout, rep)
			}
			if *predictN > 0 {
				p, err := predict.Predict(in.prog, nil, predict.NewDefaultModel(), *predictN, *overlap)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", in.name, err)
					os.Exit(2)
				}
				fmt.Printf("%s: %s", in.name, p)
				fmt.Printf("suggested nodes (%.0f%% of peak): %d\n", usefulFrac*100, p.MaxUsefulNodes(usefulFrac))
				if err := printAutoWidths(in, *predictN, *overlap); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", in.name, err)
					os.Exit(2)
				}
			}
		}
		if rep.Failed(*werror) {
			failed = true
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printAutoWidths prints the width of every replicate="auto" task on
// nodes cores, resolved over the superplan (every option enabled) as
// the runtime resolves it.
func printAutoWidths(in input, nodes, depth int) error {
	allOn := in.prog.Options()
	for name := range allOn {
		allOn[name] = true
	}
	plan, err := graph.BuildPlan(in.prog, allOn)
	if err != nil {
		return err
	}
	widths := predict.AutoWidths(in.prog, plan, nodes, depth)
	for _, t := range plan.ComponentTasks() {
		if rep, _ := graph.TaskReplicate(t); rep.Auto {
			fmt.Printf("%s: replicate=auto width on %d nodes: %s %d\n", in.name, nodes, t.Name, widths[t.ID])
		}
	}
	return nil
}

type input struct {
	name string
	prog *graph.Program
}

// collect resolves the inputs: -all, -builtin, or spec files.
func collect(builtin string, all bool, args []string) ([]input, error) {
	var ins []input
	if all {
		for _, v := range apps.Variants() {
			prog, err := v.Program()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.Name, err)
			}
			ins = append(ins, input{v.Name, prog})
		}
		return ins, nil
	}
	if builtin != "" {
		v, err := apps.VariantByName(builtin)
		if err != nil {
			return nil, err
		}
		prog, err := v.Program()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", builtin, err)
		}
		return []input{{builtin, prog}}, nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: xspclvet [flags] <spec.xml>... (or -builtin <name>, or -all)")
	}
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, err := xspcl.Load(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ins = append(ins, input{path, prog})
	}
	return ins, nil
}
