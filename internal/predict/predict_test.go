package predict_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xspcl/internal/apps"
	"xspcl/internal/graph"
	"xspcl/internal/predict"
	"xspcl/internal/xspcl"
)

func pipProgram(t *testing.T) *graph.Program {
	t.Helper()
	v := apps.PiP1()
	prog, err := v.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestPredictPiPBasics(t *testing.T) {
	prog := pipProgram(t)
	p, err := predict.Predict(prog, nil, predict.NewDefaultModel(), 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Work <= 0 || p.CriticalPath <= 0 || p.MaxTask <= 0 {
		t.Fatalf("degenerate prediction: %+v", p)
	}
	if p.CriticalPath > p.Work {
		t.Fatal("critical path exceeds total work")
	}
	if p.MaxTask > p.CriticalPath {
		t.Fatal("max task exceeds critical path")
	}
	if len(p.PerNode) != 9 {
		t.Fatalf("%d points", len(p.PerNode))
	}
	// Speedup must be monotone non-decreasing and ≤ n.
	for i, pt := range p.PerNode {
		if pt.Nodes != i+1 {
			t.Fatalf("point %d has nodes %d", i, pt.Nodes)
		}
		if pt.Speedup > float64(pt.Nodes)+1e-9 {
			t.Fatalf("superlinear prediction at %d: %f", pt.Nodes, pt.Speedup)
		}
		if i > 0 && pt.Speedup < p.PerNode[i-1].Speedup-1e-9 {
			t.Fatalf("speedup not monotone at %d", pt.Nodes)
		}
	}
	if p.PerNode[0].Speedup != 1 {
		t.Fatalf("1-node speedup %f", p.PerNode[0].Speedup)
	}
}

func TestPredictionTracksSimulation(t *testing.T) {
	// The analytic prediction should agree with the discrete-event
	// simulation within a reasonable factor across node counts — the
	// role the paper assigns to SPC ("SPC allows efficient performance
	// prediction").
	v := apps.PiP1()
	prog, err := v.Program()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict.Predict(prog, nil, predict.NewDefaultModel(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 4} {
		rep, _, err := v.Run(apps.SimConfig(nodes, apps.RunOptions{Workless: true}))
		if err != nil {
			t.Fatal(err)
		}
		simPerIter := float64(rep.Cycles) / float64(rep.Iterations)
		predicted := float64(pred.PerNode[nodes-1].Cycles)
		ratio := predicted / simPerIter
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("nodes=%d: prediction %0.f vs sim %0.f (ratio %.2f)", nodes, predicted, simPerIter, ratio)
		}
	}
}

func TestPredictSpeedupOrdering(t *testing.T) {
	// Blur has the highest computation-to-communication ratio and the
	// paper's Figure 9 shows it scaling best; the prediction should
	// agree on the ordering at 9 nodes against PiP.
	blurProg, err := apps.Blur5().Program()
	if err != nil {
		t.Fatal(err)
	}
	pipProg := pipProgram(t)
	blur, err := predict.Predict(blurProg, nil, predict.NewDefaultModel(), 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := predict.Predict(pipProg, nil, predict.NewDefaultModel(), 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if blur.PerNode[8].Speedup <= pip.PerNode[8].Speedup {
		t.Fatalf("blur (%.2f) should out-scale PiP (%.2f)", blur.PerNode[8].Speedup, pip.PerNode[8].Speedup)
	}
}

func TestPredictRespectsOptions(t *testing.T) {
	prog, err := apps.PiP2().Program()
	if err != nil {
		t.Fatal(err)
	}
	on, err := predict.Predict(prog, map[string]bool{"pip2": true}, predict.NewDefaultModel(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	off, err := predict.Predict(prog, map[string]bool{"pip2": false}, predict.NewDefaultModel(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if on.Work <= off.Work {
		t.Fatalf("enabling pip2 did not add work: %d vs %d", on.Work, off.Work)
	}
}

func TestPredictErrors(t *testing.T) {
	prog := pipProgram(t)
	if _, err := predict.Predict(prog, nil, predict.NewDefaultModel(), 0, 5); err == nil {
		t.Fatal("maxNodes 0 accepted")
	}
	if _, err := predict.Predict(prog, map[string]bool{"nosuch": true}, predict.NewDefaultModel(), 2, 5); err == nil {
		t.Fatal("unknown option accepted")
	}
	// Unknown class fails cleanly.
	b := graph.NewBuilder("x")
	b.Stream("s")
	b.Body(b.Component("c", "mystery", graph.Ports{"out": "s"}, nil))
	if _, err := predict.Predict(b.MustProgram(), nil, predict.NewDefaultModel(), 2, 5); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestMaxUsefulNodesAndEfficiency(t *testing.T) {
	prog := pipProgram(t)
	p, err := predict.Predict(prog, nil, predict.NewDefaultModel(), 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := p.MaxUsefulNodes(0.95)
	if n < 1 || n > 9 {
		t.Fatalf("MaxUsefulNodes = %d", n)
	}
	if e := p.Efficiency(1); e != 1 {
		t.Fatalf("efficiency at 1 node = %f", e)
	}
	if e := p.Efficiency(9); e <= 0 || e > 1 {
		t.Fatalf("efficiency at 9 nodes = %f", e)
	}
	if p.Efficiency(42) != 0 {
		t.Fatal("efficiency for unknown node count")
	}
	if !strings.Contains(p.String(), "speedup") {
		t.Fatal("String output")
	}
}

func TestPipelineDepthImprovesPrediction(t *testing.T) {
	prog := pipProgram(t)
	deep, err := predict.Predict(prog, nil, predict.NewDefaultModel(), 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := predict.Predict(prog, nil, predict.NewDefaultModel(), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deep.PerNode[8].Cycles > shallow.PerNode[8].Cycles {
		t.Fatal("pipelining should not slow the prediction down")
	}
}

// TestAutoWidthsAutotuneSpec: the two hot blur stages of
// examples/specs/autotune.xml, marked replicate="auto", widen only once
// the cores outnumber what the serial bound needs, and the capacity
// follows: min(3 + Σ(width − 1), 5).
func TestAutoWidthsAutotuneSpec(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "autotune.xml"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xspcl.Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := graph.BuildPlan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ cores, width, capacity int }{
		{1, 1, 3}, {2, 1, 3}, {4, 2, 5}, {8, 3, 5},
	} {
		widths := predict.AutoWidths(prog, plan, c.cores, 5)
		want := []int{1, c.width, c.width, 1} // src, bh, bv, snk
		if got := predict.Capacity(widths, 3, 5); !slices.Equal(widths, want) || got != c.capacity {
			t.Errorf("%d cores: widths %v, capacity %d; want %v and %d", c.cores, widths, got, want, c.capacity)
		}
	}
}
