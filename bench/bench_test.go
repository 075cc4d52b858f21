package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xspcl"
)

// tinyFrames is an episode short enough for a test and long enough to
// cross two reconfigurations of pip12 and one period of the input ring.
const tinyFrames = 30

// tiny returns the workload at an episode length a test can afford.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	short := *wl
	short.n = min(tinyFrames, wl.n)
	return &short
}

// runTiny runs one workload the way the command line does, for the
// fewest timed episodes after the warm-up, and parses the result line.
func runTiny(t *testing.T, name string, trace bool) *result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := &options{seed: 1, trace: trace, outDir: t.TempDir()}
	if code := runWorkload(&stdout, &stderr, tiny(t, name), o); code != 0 {
		t.Fatalf("%s: exit %d\n%s%s", name, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if !trace && !strings.HasPrefix(lines[len(lines)-2], "plain {") {
		t.Errorf("the line before the result is not the plain medians: %q", lines[len(lines)-2])
	}
	return &res
}

func checkNames(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestContract holds the lists in metrics.go and workloads.go to
// BENCHMARK.json: names, units and directions, in order.
func TestContract(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := c.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
	}
	var e2e, layers []metricDef
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range c.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, list := range []struct {
		key       string
		got, want []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(list.got) != len(list.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", list.key, len(list.got), len(list.want))
			continue
		}
		for i := range list.want {
			if list.got[i] != list.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark %v", list.key, i, list.got[i], list.want[i])
			}
		}
	}
}

// TestWorkloadsTiny runs every workload end to end, untraced and
// traced: the printed names are the contract's and every frame
// verifies. The traced run includes the fixture honesty check and the
// in-process repeat of the sim cycle counts.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			n := min(tinyFrames, wl.n)
			res := runTiny(t, wl.name, false)
			checkNames(t, res, endToEnd)
			if !res.Correct || res.Failed != 0 || res.Attempted != (1+minEpisodes)*n {
				t.Errorf("untraced: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			if testing.Short() {
				return
			}
			res = runTiny(t, wl.name, true)
			checkNames(t, res, perLayer)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			reconfigs := res.Metrics["hinch.reconfigs_per_kframe"].Value
			duty := res.Metrics["hinch.pip2_duty_frac"].Value
			if reconfiguring := wl.name == "pip12"; reconfiguring != (reconfigs > 0) || reconfiguring != (duty > 0) {
				t.Errorf("hinch.reconfigs_per_kframe = %v, hinch.pip2_duty_frac = %v", reconfigs, duty)
			}
		})
	}
}

// TestSimCyclesRepeat: the sim.* counts are a property of the program,
// so two invocations on the same seed agree to the last cycle.
func TestSimCyclesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload on the simulator ten times")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				r, err := newRunner(tiny(t, wl.name), 7, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = map[string]float64{}
				if err := r.simLayers(runs[i], 7); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"sim.cycles_per_frame_c1", "sim.speedup_c2", "sim.speedup_c4", "sim.speedup_c8"} {
				if a, b := runs[0][name], runs[1][name]; a != b || a <= 0 {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}

// wrongBlend is the stock blend with one luminance pixel off per inset.
type wrongBlend struct {
	xspcl.Component
	luma bool
}

func newWrongBlend() xspcl.Component {
	spec, _ := xspcl.DefaultRegistry().Lookup("blend")
	return &wrongBlend{Component: spec.New()}
}

func (b *wrongBlend) Init(ic *xspcl.InitContext) error {
	b.luma = ic.StringParam("plane", "Y") == "Y"
	return b.Component.Init(ic)
}

func (b *wrongBlend) Run(rc *xspcl.RunContext) error {
	if err := b.Component.Run(rc); err != nil {
		return err
	}
	if !b.luma || rc.Slice() != 0 {
		return nil
	}
	out, err := xspcl.FrameOf(rc.Out("out"))
	if err != nil {
		return err
	}
	out.Y[0]++ // outside both insets: no other blend job touches it
	return nil
}

// TestWrongBlendFails is the negative case: a component that computes
// wrong pixels shows as failed frames and a non-zero exit.
func TestWrongBlendFails(t *testing.T) {
	wl := tiny(t, "pip12")
	override := map[string]func() xspcl.Component{"blend": newWrongBlend}
	r, err := newRunner(wl, 1, false, override)
	if err != nil {
		t.Fatal(err)
	}
	if ep := r.episode(false); ep.err != nil || ep.failed != tinyFrames {
		t.Errorf("episode: err %v, %d of %d frames failed; want all", ep.err, ep.failed, tinyFrames)
	}
	var stdout bytes.Buffer
	o := &options{seed: 1, outDir: t.TempDir(), override: override}
	if code := runWorkload(&stdout, io.Discard, wl, o); code == 0 {
		t.Errorf("exit 0 with a wrong blend\n%s", stdout.String())
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "nope", "-seed", "3", "-seconds", "1", "-trace", "0"} // the form the benchmark is run in
	if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestZeroSteal: the extrapolation recovers a line exactly, is the
// median without steal, and stays a usable figure when every episode
// lost most of its time.
func TestZeroSteal(t *testing.T) {
	steal := []float64{0, 0.1, 0.2, 0.3, 0.4}
	line := make([]float64, len(steal))
	for i, s := range steal {
		line[i] = 2 + 3*s
	}
	if at0, slope := zeroSteal(steal, line); math.Abs(at0-2) > 1e-12 || math.Abs(slope-3) > 1e-12 {
		t.Errorf("line: at0 %v, slope %v; want 2, 3", at0, slope)
	}
	if at0, slope := zeroSteal(make([]float64, 5), []float64{5, 1, 4, 2, 3}); at0 != 3 || slope != 0 {
		t.Errorf("no steal: at0 %v, slope %v; want the median 3, 0", at0, slope)
	}
	if at0, _ := zeroSteal([]float64{1, 2, 3}, []float64{3, 2, 1}); at0 != 2 {
		t.Errorf("falling: at0 %v, want the median 2 (slope held at 0)", at0)
	}
	if at0, _ := zeroSteal([]float64{1, 2, 3}, []float64{1, 2.5, 4}); at0 != 0.5 {
		t.Errorf("extrapolated below zero: at0 %v, want half the smallest figure", at0)
	}
}

// TestCompareSets: the comparison reads what repeat.sh writes, and a
// pair that needs more than its bound fails it.
func TestCompareSets(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	write := func(scale func(run int) float64) string {
		dir := t.TempDir()
		for _, wl := range c.Workloads {
			var b strings.Builder
			for run := 0; run < 4; run++ {
				res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
				plain := map[string]float64{}
				for _, m := range c.EndToEnd {
					res.Metrics[m.Name] = metric{Value: 100 * scale(run), Unit: m.Unit}
					plain[m.Name] = 100 + 20*float64(run)
				}
				p, _ := json.Marshal(plain)
				r, _ := json.Marshal(res)
				fmt.Fprintf(&b, "plain %s\n%s\n", p, r)
			}
			if err := os.WriteFile(filepath.Join(dir, wl.Name+".jsonl"), []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	steady := write(func(run int) float64 { return 1 + 0.001*float64(run) })
	var out bytes.Buffer
	if err := compareSets(&out, c, steady, steady); err != nil || strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("steady sets: %v\n%s", err, out.String())
	}
	out.Reset()
	wide := write(func(run int) float64 { return 1 + 0.2*float64(run) })
	if err := compareSets(&out, c, steady, wide); err == nil || !strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("a set that spreads by tens of percent passed: %v\n%s", err, out.String())
	}
}
