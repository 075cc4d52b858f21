// Command bench is the repository's benchmark: four workloads on the
// real backend, each verified frame by frame against a frozen sequential
// reference. README.md describes the metrics, what is expected to move
// them and how a run is made to repeat on a shared host; ../BENCHMARK.json
// is the contract the output follows.
//
//	go run -C bench . [-workload pip12|jpip2|blur5|sched] [-seed N] [-seconds S] [-trace 0|1]
//	go run -C bench . -compare DIR_A DIR_B
//
// The last line of standard output is one JSON object per workload:
// correct, attempted, failed, metrics. The exit code is non-zero when a
// frame failed verification or a run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c, err := readContract()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pip12, jpip2, blur5 or sched (default: each in turn)")
	seed := fs.Uint64("seed", 1, "seeds the input content")
	seconds := fs.Float64("seconds", float64(c.RunSeconds), "keep starting timed episodes for this long (default: run_seconds of BENCHMARK.json)")
	var trace bool
	// Not fs.Bool: the benchmark is run as "-trace 0" and "-trace 1",
	// and a boolean flag would not take the value from the next argument.
	fs.Func("trace", "0 or 1; 1: per-layer metrics from alternating untraced and traced episodes, and a span file", func(v string) (err error) {
		trace, err = strconv.ParseBool(v)
		return err
	})
	compare := fs.Bool("compare", false, "compare two directories of repeat.sh results: -compare DIR_A DIR_B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result directories")
			return 2
		}
		if err := compareSets(stdout, c, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if *name != "" {
		wl, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{*wl}
	}
	o := &options{seed: *seed, seconds: *seconds, trace: trace, outDir: "out"}
	code := 0
	for i := range selected {
		if failed := runWorkload(stdout, stderr, &selected[i], o); failed != 0 {
			code = failed
		}
	}
	return code
}

// runWorkload measures one workload and prints its result line.
func runWorkload(stdout, stderr io.Writer, wl *workload, o *options) int {
	res, err := measure(stdout, wl, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d frames failed verification\n", wl.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}
