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
//
// A traced run of one variant on the simulated tile is xspclrun's job:
// xspclrun -builtin Blur-35 -cores 4 -trace out.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"xspcl/internal/apps"
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
	flag.Parse()

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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
