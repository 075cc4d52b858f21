// Command experiments regenerates the paper's evaluation figures on
// the simulated SpaceCAKE tile:
//
//	experiments -fig 8     sequential overhead (Figure 8)
//	experiments -fig 9     parallel speedup, 1..9 nodes (Figure 9)
//	experiments -fig 10    reconfiguration overhead (Figure 10)
//	experiments -fig ablate design-choice ablations (DESIGN.md §4)
//	experiments -fig all   everything, in paper order
//
// Flags:
//
//	-nodes N     maximum node count for figures 9 and 10 (default 9)
//	-workless    skip real kernel computation (fast sweeps, same shapes)
//	-verify      check XSPCL output against the sequential baselines (fig 8)
//	-cache       also print per-frame L2 miss counts (the §4.1 profiling claim)
//	-cpuprofile  write a pprof CPU profile of the sweep to a file
//	-memprofile  write a pprof heap profile at exit
//	-trace F     instead of a figure sweep: run one variant (-traceapp)
//	             on the sim tile at -nodes cores with the flight
//	             recorder attached and write Perfetto JSON to F
//	-traceapp V  the variant -trace runs (default Blur-35)
//	-report FMT  report format for -trace runs: text or json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/hinch/trace"
	"xspcl/internal/obs"
	"xspcl/internal/profiling"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 8, 9, 10, ablate or all")
	nodes := flag.Int("nodes", 9, "maximum node count (figures 9, 10)")
	workless := flag.Bool("workless", false, "skip kernel computation, keep cost accounting")
	verify := flag.Bool("verify", true, "verify XSPCL output against sequential baselines (figure 8)")
	cache := flag.Bool("cache", false, "print per-frame cache miss detail (figure 8)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "record one traced run and write Perfetto JSON to this file")
	traceApp := flag.String("traceapp", "Blur-35", "variant to run under -trace")
	report := flag.String("report", "text", "report format for -trace runs: text or json")
	httpAddr := flag.String("http", "", "serve the live ops surface during a -trace run on this address (implies telemetry)")
	flag.Parse()

	if *traceOut != "" {
		if err := runTraced(*traceApp, *nodes, *workless, *traceOut, *report, *httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := apps.RunOptions{Workless: *workless, Verify: *verify && !*workless}
	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("8", func() error {
		rows, err := apps.RunFig8(apps.Fig8Variants(), opt)
		if err != nil {
			return err
		}
		fmt.Print(apps.FormatFig8(rows))
		if *cache {
			fmt.Println("\nPer-frame L2 misses (sequential vs XSPCL, §4.1 profiling claim):")
			for _, r := range rows {
				v, err := apps.VariantByName(r.App)
				if err != nil {
					return err
				}
				fmt.Printf("  %-10s seq %8.0f   xspcl %8.0f   (x%.2f)\n", r.App,
					float64(r.SeqL2Misses)/float64(v.Frames),
					float64(r.XSPCLL2Misses)/float64(v.Frames),
					float64(r.XSPCLL2Misses)/float64(max64(1, r.SeqL2Misses)))
			}
		}
		fmt.Println()
		return nil
	})

	run("9", func() error {
		series, err := apps.RunFig9(apps.Fig8Variants(), *nodes, opt)
		if err != nil {
			return err
		}
		fmt.Print(apps.FormatFig9(series))
		fmt.Println()
		return nil
	})

	run("10", func() error {
		series, err := apps.RunFig10(apps.Fig10Variants(), *nodes, opt)
		if err != nil {
			return err
		}
		fmt.Print(apps.FormatFig10(series))
		fmt.Println()
		return nil
	})

	run("ablate", func() error {
		tables, err := apps.RunAblations(*nodes)
		if err != nil {
			return err
		}
		fmt.Printf("Ablations (%d nodes, workless simulation; first row = paper's choice)\n\n", *nodes)
		for _, t := range tables {
			fmt.Println(t.Format())
		}
		return nil
	})

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runTraced executes one variant on the simulated tile with the
// flight recorder attached, writes the Perfetto export, and prints the
// run's report. Sim-backend traces are deterministic, so re-running
// the same variant yields a byte-identical file.
func runTraced(name string, nodes int, workless bool, out, report, httpAddr string) error {
	v, err := apps.VariantByName(name)
	if err != nil {
		return err
	}
	cfg := apps.SimConfig(nodes, apps.RunOptions{Workless: workless})
	rec := trace.New(0)
	cfg.Tracer = rec
	cfg.Telemetry = httpAddr != ""
	app, err := v.NewApp(cfg)
	if err != nil {
		return err
	}
	if httpAddr != "" {
		sv, err := obs.Start(httpAddr, obs.NewServer(app, rec).Handler())
		if err != nil {
			return err
		}
		defer sv.Stop(2 * time.Second)
		fmt.Fprintf(os.Stderr, "ops surface on http://%s/\n", sv.Addr())
	}
	rep, err := app.Run(v.Frames)
	if err != nil {
		return err
	}
	if err := trace.Validate(rec, rep); err != nil {
		return err
	}
	if err := rec.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s on %d nodes, %d events (%d dropped) -> %s\n",
		name, nodes, rec.Total(), rec.Dropped(), out)
	switch report {
	case "json":
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	case "text", "":
		fmt.Println(rep)
	default:
		return fmt.Errorf("unknown report format %q", report)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
