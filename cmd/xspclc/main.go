// Command xspclc is the XSPCL processing tool: it parses and validates
// a specification, and can dump the elaborated graph, list the
// flattened task DAG, or emit the Go glue code (the paper's prototype
// converts XSPCL into a runnable C program; this tool emits the
// equivalent Go main package).
//
//	xspclc -check   app.xml            validate only
//	xspclc -dump    app.xml            print the elaborated graph
//	xspclc -plan    app.xml            print the flattened task DAG
//	xspclc -emit-go app.xml > main.go  generate glue code
//	xspclc -emit-xml app.xml           re-emit the elaborated (flat) XSPCL
//	xspclc -builtin PiP-1 -dump        operate on a built-in paper app
//
// The static analyzer (see cmd/xspclvet) runs by default on every
// input; error findings fail the build, warnings fail it under
// -Werror, and -vet=false or -Wno-<pass> suppress it.
package main

import (
	"flag"
	"fmt"
	"os"

	"xspcl/internal/analysis"
	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/xspcl"
)

func main() {
	check := flag.Bool("check", false, "validate the specification and exit")
	dump := flag.Bool("dump", false, "print the elaborated graph")
	plan := flag.Bool("plan", false, "print the flattened task DAG")
	emitGo := flag.Bool("emit-go", false, "emit Go glue code to stdout")
	emitXML := flag.Bool("emit-xml", false, "re-emit the elaborated graph as flat XSPCL XML")
	builtin := flag.String("builtin", "", "use a built-in paper application (e.g. PiP-1) instead of a file")
	vet := flag.Bool("vet", true, "run the static analyzer on the input")
	werror := flag.Bool("Werror", false, "treat analyzer warnings as errors")
	wno := map[string]*bool{}
	for _, pass := range analysis.Passes {
		wno[pass] = flag.Bool("Wno-"+pass, false, "disable the analyzer's "+pass+" pass")
	}
	flag.Parse()

	src, name, err := loadSource(*builtin, flag.Args())
	if err != nil {
		fail(err)
	}
	prog, err := xspcl.Load(src)
	if err != nil {
		fail(err)
	}
	if err := prog.Validate(components.DefaultRegistry()); err != nil {
		fail(fmt.Errorf("%s: %w", name, err))
	}

	if *vet {
		disable := map[string]bool{}
		for pass, off := range wno {
			if *off {
				disable[pass] = true
			}
		}
		rep, err := analysis.Analyze(prog, analysis.Options{
			Catalog: components.DefaultRegistry(),
			Disable: disable,
		})
		if err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
		rep.Program = name
		analysis.Render(os.Stderr, rep)
		if rep.Failed(*werror) {
			fail(fmt.Errorf("%s: static analysis failed (rerun with xspclvet for details)", name))
		}
	}

	did := false
	if *dump {
		fmt.Print(prog.String())
		did = true
	}
	if *plan {
		p, err := graph.BuildPlan(prog, nil)
		if err != nil {
			fail(err)
		}
		direct, in, out := p.DepRecords()
		fmt.Printf("plan: %d tasks, %d direct edges, %d joins (%d in, %d out) (default configuration %s)\n",
			len(p.Tasks), direct, len(p.Joins), in, out, p.ConfigKey())
		for j, jn := range p.Joins {
			fmt.Printf("  join %d: %d -> %d\n", j, len(jn.Feeders), len(jn.Entries))
		}
		for _, t := range p.Tasks {
			fmt.Printf("  %3d %-24s %-14s deps=%v", t.ID, t.Name, t.Role, t.DirectDeps)
			if t.WaitsOn != graph.NoJoin {
				fmt.Printf(" waits=join %d", t.WaitsOn)
			}
			if t.Feeds != graph.NoJoin {
				fmt.Printf(" feeds=join %d", t.Feeds)
			}
			fmt.Println()
		}
		did = true
	}
	if *emitGo {
		code, err := xspcl.EmitGo(prog)
		if err != nil {
			fail(err)
		}
		fmt.Print(code)
		did = true
	}
	if *emitXML {
		out, err := xspcl.EmitXML(prog)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		did = true
	}
	if *check || !did {
		fmt.Fprintf(os.Stderr, "%s: OK (%d components, %d streams, %d options)\n",
			name, len(prog.Components()), len(prog.Streams), len(prog.Options()))
	}
}

func loadSource(builtin string, args []string) (src, name string, err error) {
	if builtin != "" {
		v, err := apps.VariantByName(builtin)
		if err != nil {
			return "", "", err
		}
		return v.XML, builtin, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: xspclc [flags] <spec.xml> (or -builtin <name>)")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(data), args[0], nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
