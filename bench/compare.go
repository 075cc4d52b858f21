package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// contract is the part of BENCHMARK.json the benchmark reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readContract finds BENCHMARK.json from the repository root or from
// this directory.
func readContract() (*contract, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// keptRun is one run as repeat.sh kept it: the result line and, before it,
// the plain medians the corrections started from.
type keptRun struct {
	result
	plain map[string]float64
}

// readSet reads what repeat.sh collected for one workload: per run a
// "plain {...}" line and the result line.
func readSet(dir, workload string) ([]keptRun, error) {
	f, err := os.Open(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []keptRun
	var r keptRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "plain "); ok {
			if err := json.Unmarshal([]byte(rest), &r.plain); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name(), err)
			}
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &r.result); err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name(), err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run failed verification", f.Name())
		}
		if r.plain == nil {
			return nil, fmt.Errorf("%s: a result line without its plain line", f.Name())
		}
		runs = append(runs, r)
		r = keptRun{}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) < 2 {
		return nil, fmt.Errorf("%s: %d runs, need at least 2", f.Name(), len(runs))
	}
	return runs, nil
}

// spread is the distance between the quartiles of v over their median,
// as the acceptance rule measures run-to-run spread.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}

// compareSets holds two sets of runs of one commit against the bounds
// in BENCHMARK.json. Per end-to-end metric and workload it prints the
// two set medians, by how much B is worse than A, each set's spread,
// the spread of the runs of both sets together and the spread the plain
// medians of those same runs have, the bound, and the bound the data
// needs: max(5 %, 2 x |difference|, 3 x the spread of all runs). The
// spread of all runs is the one that counts because twice the runs
// estimate it better; ten runs put the same spread anywhere from half
// to twice its value. The acceptance rule holds every spread but the
// set-up time's within its bound, which is what the factor 3 is the
// margin for; the set-up time's spread has to stay within the bound
// itself. A pair that needs more than its bound is OUTSIDE and makes
// the comparison fail.
func compareSets(w io.Writer, c *contract, dirA, dirB string) error {
	fmt.Fprintf(w, "%-8s %-18s %11s %11s %8s %9s %9s %7s %8s %7s %7s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "all", "plain", "bound", "needs")
	outside := 0
	supported := make([]float64, len(c.EndToEnd))
	for _, wl := range c.Workloads {
		a, err := readSet(dirA, wl.Name)
		if err != nil {
			return err
		}
		b, err := readSet(dirB, wl.Name)
		if err != nil {
			return err
		}
		for i, m := range c.EndToEnd {
			column := func(runs []keptRun) (reported, plain []float64) {
				for _, r := range runs {
					reported = append(reported, r.Metrics[m.Name].Value)
					plain = append(plain, r.plain[m.Name])
				}
				return reported, plain
			}
			va, pa := column(a)
			vb, pb := column(b)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			all := spread(append(va, vb...))
			margin := 3.0
			if m.Name == "setup_s" {
				margin = 1
			}
			needs := max(0.05, 2*math.Abs(worse), margin*all)
			supported[i] = max(supported[i], needs)
			verdict := ""
			if needs > m.Bound {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-8s %-18s %11.6g %11.6g %+7.2f%% %8.2f%% %8.2f%% %6.2f%% %7.2f%% %6.1f%% %6.1f%%%s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*spread(va), 100*spread(vb), 100*all, 100*spread(append(pa, pb...)), 100*m.Bound, 100*needs, verdict)
		}
	}
	for i, m := range c.EndToEnd {
		fmt.Fprintf(w, "%-18s bound %.0f%%, the data needs %.0f%%\n", m.Name, 100*m.Bound, math.Ceil(100*supported[i]))
	}
	if outside > 0 {
		return fmt.Errorf("%d metric x workload pairs need more than their bound", outside)
	}
	return nil
}
