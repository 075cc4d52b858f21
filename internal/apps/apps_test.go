package apps

import (
	"fmt"
	"strings"
	"testing"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// Scaled-down configurations keep the unit tests fast; the geometry
// constraints (macroblock alignment, even small pictures, block-aligned
// slices) are the same as the paper's.
func smallPiP(pips int) PiPConfig {
	return PiPConfig{W: 128, H: 64, Frames: 6, Factor: 4, Slices: 4, Pips: pips, Every: 4}
}

func smallJPiP(pips int) JPiPConfig {
	return JPiPConfig{W: 128, H: 64, Frames: 4, Factor: 8, Slices: 4, Quality: 75, Pips: pips, Every: 4}
}

func smallBlur(taps int) BlurConfig {
	return BlurConfig{W: 64, H: 48, Frames: 6, Slices: 4, Taps: taps, Every: 4}
}

func TestPiPMatchesSequential(t *testing.T) {
	for pips := 1; pips <= 2; pips++ {
		cfg := smallPiP(pips)
		v := NewPiPVariant(fmt.Sprintf("pip-%d", pips), cfg)
		seq, err := SeqPiP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, sink, err := v.Run(SimConfig(2, RunOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Iterations != cfg.Frames || sink.Count() != cfg.Frames {
			t.Fatalf("pips=%d: iterations %d, sink %d", pips, rep.Iterations, sink.Count())
		}
		if sink.Checksum() != seq.Checksum {
			t.Fatalf("pips=%d: XSPCL output differs from sequential baseline", pips)
		}
	}
}

func TestJPiPMatchesSequential(t *testing.T) {
	for pips := 1; pips <= 2; pips++ {
		cfg := smallJPiP(pips)
		v := NewJPiPVariant(fmt.Sprintf("jpip-%d", pips), cfg)
		seq, err := SeqJPiP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, sink, err := v.Run(SimConfig(3, RunOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if sink.Checksum() != seq.Checksum {
			t.Fatalf("pips=%d: XSPCL output differs from sequential baseline", pips)
		}
	}
}

func TestBlurMatchesSequential(t *testing.T) {
	for _, taps := range []int{3, 5} {
		cfg := smallBlur(taps)
		v := NewBlurVariant(fmt.Sprintf("blur-%d", taps), cfg)
		seq, err := SeqBlur(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, sink, err := v.Run(SimConfig(2, RunOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if sink.Checksum() != seq.Checksum {
			t.Fatalf("taps=%d: XSPCL output differs from sequential baseline", taps)
		}
	}
}

func TestPiPOnRealBackend(t *testing.T) {
	cfg := smallPiP(2)
	v := NewPiPVariant("pip-real", cfg)
	seq, err := SeqPiP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := v.NewApp(hinch.Config{Backend: hinch.BackendReal, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(cfg.Frames); err != nil {
		t.Fatal(err)
	}
	sink := app.Component("snk").(interface{ Checksum() uint64 })
	if sink.Checksum() != seq.Checksum {
		t.Fatal("real backend output differs from sequential baseline")
	}
}

// TestRealBackend8WorkersMatchesSequential stress-tests the
// work-stealing scheduler: all three paper applications on the real
// backend with 8 workers must produce output frames bit-identical to
// the hand-written sequential baselines. Run under -race in CI.
func TestRealBackend8WorkersMatchesSequential(t *testing.T) {
	type appCase struct {
		name string
		seq  func() (*SeqResult, error)
		v    *Variant
	}
	pip := smallPiP(2)
	pip.Frames = 16
	jpip := smallJPiP(1)
	jpip.Frames = 8
	blur := smallBlur(5)
	blur.Frames = 16
	cases := []appCase{
		{"PiP", func() (*SeqResult, error) { return SeqPiP(pip) }, NewPiPVariant("pip-ws", pip)},
		{"JPiP", func() (*SeqResult, error) { return SeqJPiP(jpip) }, NewJPiPVariant("jpip-ws", jpip)},
		{"Blur", func() (*SeqResult, error) { return SeqBlur(blur) }, NewBlurVariant("blur-ws", blur)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq, err := c.seq()
			if err != nil {
				t.Fatal(err)
			}
			app, err := c.v.NewApp(hinch.Config{Backend: hinch.BackendReal, Cores: 8})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := app.Run(c.v.Frames)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != c.v.Frames {
				t.Fatalf("ran %d iterations, want %d", rep.Iterations, c.v.Frames)
			}
			sink := app.Component("snk").(interface{ Checksum() uint64 })
			if sink.Checksum() != seq.Checksum {
				t.Fatal("8-worker real backend output differs from sequential baseline")
			}
		})
	}
}

// TestBlur5ChainedWithinJobs pins Report.Sched.Chained to the jobs
// Report.Jobs counts: on Blur-5x5 the disabled blur3 option's tasks
// are released every iteration and skipped as no-ops, which are not
// jobs, so a chained no-op must not count as a chained job either.
func TestBlur5ChainedWithinJobs(t *testing.T) {
	cfg := DefaultBlur(5)
	cfg.Frames = 48
	v := NewBlurVariant("Blur-5x5", cfg)
	for _, cores := range []int{1, 2, 4} {
		app, err := v.NewApp(hinch.Config{Backend: hinch.BackendReal, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(cfg.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sched.Chained > rep.Jobs {
			t.Errorf("%d workers: %d chained jobs > %d jobs", cores, rep.Sched.Chained, rep.Jobs)
		}
	}
}

func TestJPiPGraphStructure(t *testing.T) {
	// The Figure-7 structure: MJPEG inputs, one decode per input,
	// per-plane sliced IDCT / downscale / blend.
	cfg := smallJPiP(1)
	prog, err := NewJPiPVariant("jpip", cfg).Program()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := graph.BuildPlan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, tk := range plan.ComponentTasks() {
		count[tk.Class]++
	}
	if count["mjpegsrc"] != 2 || count["jpegdecode"] != 2 {
		t.Fatalf("sources/decoders: %v", count)
	}
	if count["idct"] != 2*3*cfg.Slices {
		t.Fatalf("idct tasks %d, want %d", count["idct"], 2*3*cfg.Slices)
	}
	if count["downscale"] != 3*cfg.Slices || count["blend"] != 3*cfg.Slices {
		t.Fatalf("downscale/blend: %v", count)
	}
	if count["videosink"] != 1 {
		t.Fatalf("sink: %v", count)
	}
}

func TestBlurUsesCrossdep(t *testing.T) {
	cfg := smallBlur(3)
	prog, err := NewBlurVariant("blur", cfg).Program()
	if err != nil {
		t.Fatal(err)
	}
	if prog.IsSP() {
		t.Fatal("Blur should use non-SP cross dependencies")
	}
	plan, err := graph.BuildPlan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*graph.Task{}
	for _, tk := range plan.Tasks {
		byName[tk.Name] = tk
	}
	// v#i depends on h#(i-1), h#i, h#(i+1) — and not on h#(i+2).
	for i := 0; i < cfg.Slices; i++ {
		v := byName[fmt.Sprintf("k3.v#%d", i)]
		if v == nil {
			t.Fatalf("missing vertical slice %d (names: %v)", i, taskNames(plan))
		}
		deps := map[int]bool{}
		for _, d := range plan.Preds(v.ID) {
			deps[d] = true
		}
		for j := 0; j < cfg.Slices; j++ {
			h := byName[fmt.Sprintf("k3.h#%d", j)]
			want := j >= i-1 && j <= i+1
			if deps[h.ID] != want {
				t.Fatalf("v#%d dep on h#%d = %v, want %v", i, j, deps[h.ID], want)
			}
		}
	}
}

func taskNames(p *graph.Plan) []string {
	names := make([]string, len(p.Tasks))
	for i, tk := range p.Tasks {
		names[i] = tk.Name
	}
	return names
}

func TestReconfigurablePiPTogglesAndStaysCorrect(t *testing.T) {
	cfg := smallPiP(1)
	cfg.Reconfig = true
	cfg.Frames = 24
	v := NewPiPVariant("pip-12", cfg)
	rep, sink, err := v.Run(SimConfig(3, RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigs < 2 {
		t.Fatalf("only %d reconfigurations in 24 frames with period 4", rep.Reconfigs)
	}
	if sink.Count() != 24 {
		t.Fatalf("sink saw %d frames", sink.Count())
	}
	if rep.ReconfigStall <= 0 {
		t.Fatal("no reconfiguration stall charged")
	}
}

func TestReconfigurableBlurSwitchesKernels(t *testing.T) {
	cfg := smallBlur(3)
	cfg.Reconfig = true
	cfg.Frames = 20
	v := NewBlurVariant("blur-35", cfg)
	rep, sink, err := v.Run(SimConfig(2, RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigs < 2 {
		t.Fatalf("only %d reconfigurations", rep.Reconfigs)
	}
	if sink.Count() != 20 {
		t.Fatalf("sink saw %d frames", sink.Count())
	}
	// The output must mix 3-tap and 5-tap frames: its checksum can
	// equal neither the pure 3x3 nor the pure 5x5 run.
	pure3, err := SeqBlur(BlurConfig{W: cfg.W, H: cfg.H, Frames: 20, Slices: cfg.Slices, Taps: 3})
	if err != nil {
		t.Fatal(err)
	}
	pure5, err := SeqBlur(BlurConfig{W: cfg.W, H: cfg.H, Frames: 20, Slices: cfg.Slices, Taps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Checksum() == pure3.Checksum || sink.Checksum() == pure5.Checksum {
		t.Fatal("reconfigurable blur never switched kernels")
	}
}

func TestSimRunsAreDeterministic(t *testing.T) {
	cfg := smallJPiP(1)
	run := func() int64 {
		rep, _, err := NewJPiPVariant("jpip", cfg).Run(SimConfig(3, RunOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	if run() != run() {
		t.Fatal("JPiP simulation not deterministic")
	}
}

func TestWorklessMatchesCycleShape(t *testing.T) {
	// Workless runs must produce similar (not identical — entropy ops
	// are estimated) cycle counts and identical job counts.
	cfg := smallPiP(1)
	v := NewPiPVariant("pip", cfg)
	full, _, err := v.Run(SimConfig(2, RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewPiPVariant("pip", cfg)
	workless, _, err := v2.Run(SimConfig(2, RunOptions{Workless: true}))
	if err != nil {
		t.Fatal(err)
	}
	if full.Jobs != workless.Jobs {
		t.Fatalf("jobs differ: %d vs %d", full.Jobs, workless.Jobs)
	}
	if full.Cycles != workless.Cycles {
		// PiP has no data-dependent costs, so they should be identical.
		t.Fatalf("cycles differ: %d vs %d", full.Cycles, workless.Cycles)
	}
}

func TestFig8SmallScale(t *testing.T) {
	variants := []*Variant{
		NewPiPVariant("PiP-1", smallPiP(1)),
		NewJPiPVariant("JPiP-1", smallJPiP(1)),
		NewBlurVariant("Blur-3x3", smallBlur(3)),
	}
	rows, err := RunFig8(variants, RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.ChecksumOK {
			t.Errorf("%s: output mismatch", r.App)
		}
		if r.SeqCycles <= 0 || r.XSPCLCycles <= 0 {
			t.Errorf("%s: empty measurement", r.App)
		}
		if r.OverheadPct < -10 || r.OverheadPct > 150 {
			t.Errorf("%s: implausible overhead %.1f%%", r.App, r.OverheadPct)
		}
	}
	out := FormatFig8(rows)
	if !strings.Contains(out, "PiP-1") || !strings.Contains(out, "overhead") {
		t.Fatalf("format: %s", out)
	}
}

func TestFig9SmallScale(t *testing.T) {
	variants := []*Variant{
		NewBlurVariant("Blur-3x3", smallBlur(3)),
	}
	series, err := RunFig9(variants, 4, RunOptions{Workless: true})
	if err != nil {
		t.Fatal(err)
	}
	s := series[0]
	if len(s.Points) != 4 {
		t.Fatalf("%d points", len(s.Points))
	}
	if s.Points[0].Speedup > 1.0001 {
		t.Fatalf("1-node speedup %f > 1", s.Points[0].Speedup)
	}
	if s.Points[3].Speedup <= s.Points[0].Speedup {
		t.Fatalf("no speedup: %v", s.Points)
	}
	out := FormatFig9(series)
	if !strings.Contains(out, "Blur-3x3") {
		t.Fatalf("format: %s", out)
	}
}

func TestFig10SmallScale(t *testing.T) {
	recfg := smallBlur(3)
	recfg.Reconfig = true
	recfg.Frames = 24
	v := NewBlurVariant("Blur-35", recfg)
	v.StaticPair = []string{"blur3s", "blur5s"}
	// Patch VariantByName resolution by running the internals directly:
	// construct the static pair inline.
	s3 := NewBlurVariant("blur3s", BlurConfig{W: recfg.W, H: recfg.H, Frames: 24, Slices: recfg.Slices, Taps: 3})
	s5 := NewBlurVariant("blur5s", BlurConfig{W: recfg.W, H: recfg.H, Frames: 24, Slices: recfg.Slices, Taps: 5})
	series, err := RunFig10With(v, []*Variant{s3, s5}, 3, RunOptions{Workless: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range series.Points {
		if p.Reconfigs == 0 {
			t.Fatalf("node %d: no reconfigs", p.Nodes)
		}
		// Weighted by duty, halting and draining can only add time:
		// +9.8, +19.1 and +27.2 % at 1-3 nodes.
		if p.OverheadPct < 0 || p.OverheadPct > 100 {
			t.Fatalf("node %d: implausible overhead %.1f%%", p.Nodes, p.OverheadPct)
		}
	}
	out := FormatFig10([]Fig10Series{*series})
	if !strings.Contains(out, "Blur-35") {
		t.Fatalf("format: %s", out)
	}
}

func TestVariantLookup(t *testing.T) {
	names := []string{"PiP-1", "PiP-2", "JPiP-1", "JPiP-2", "Blur-3x3", "Blur-5x5", "PiP-12", "JPiP-12", "Blur-35", "JPiP-FT"}
	if len(Variants()) != len(names) {
		t.Fatalf("%d variants", len(Variants()))
	}
	for _, n := range names {
		v, err := VariantByName(n)
		if err != nil || v.Name != n {
			t.Fatalf("lookup %s: %v", n, err)
		}
	}
	if _, err := VariantByName("nosuch"); err == nil {
		t.Fatal("unknown variant resolved")
	}
}

func TestAllPaperSpecsValidate(t *testing.T) {
	for _, v := range Variants() {
		prog, err := v.Program()
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if _, err := graph.BuildPlan(prog, nil); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := PiPConfig{W: 100, H: 64, Frames: 1, Factor: 4, Slices: 1, Pips: 1}
	if bad.Validate() == nil {
		t.Error("unaligned PiP accepted")
	}
	badJ := DefaultJPiP(1)
	badJ.Factor = 3
	if badJ.Validate() == nil {
		t.Error("odd JPiP factor accepted")
	}
	badB := DefaultBlur(3)
	badB.Taps = 4
	if badB.Validate() == nil {
		t.Error("4-tap blur accepted")
	}
}

func TestJPiPCacheMisses(t *testing.T) {
	// The §4.1 profiling claim: the XSPCL JPiP takes significantly more
	// cache misses than the fused sequential version, because the
	// coefficient planes travel through streams instead of staying in
	// the decoder's scratch.
	cfg := smallJPiP(1)
	seq, err := SeqJPiP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := NewJPiPVariant("jpip", cfg).Run(SimConfig(1, RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.L2Misses < 2*seq.Cache.L2Misses {
		t.Fatalf("XSPCL L2 misses (%d) not significantly higher than sequential (%d)",
			rep.Cache.L2Misses, seq.Cache.L2Misses)
	}
	// And the PiP gap is far smaller: its only intermediate is the tiny
	// downscaled picture.
	pcfg := smallPiP(1)
	pseq, err := SeqPiP(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	prep, _, err := NewPiPVariant("pip", pcfg).Run(SimConfig(1, RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	jpipRatio := float64(rep.Cache.L2Misses) / float64(max64(1, seq.Cache.L2Misses))
	pipRatio := float64(prep.Cache.L2Misses) / float64(max64(1, pseq.Cache.L2Misses))
	if jpipRatio <= pipRatio {
		t.Fatalf("JPiP miss ratio (%.1f) should exceed PiP's (%.1f)", jpipRatio, pipRatio)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestAblationsRunAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry ablations are slow")
	}
	tables, err := RunAblations(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("%d ablation tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) < 2 {
			t.Fatalf("table %s has %d rows", tab.Name, len(tab.Rows))
		}
		for _, r := range tab.Rows {
			if r.Cycles <= 0 {
				t.Fatalf("table %s row %s: no cycles", tab.Name, r.Label)
			}
		}
		if !strings.Contains(tab.Format(), tab.Name) {
			t.Fatalf("format of %s", tab.Name)
		}
	}
}

// TestJPiPFTFaultFreeMatchesSequential: without injected faults the
// fault-tolerant variant stays on the compressed chain and computes
// exactly JPiP-1.
func TestJPiPFTFaultFreeMatchesSequential(t *testing.T) {
	cfg := smallJPiP(1)
	cfg.FT = true
	v := NewJPiPVariant("jpip-ft", cfg)
	seq, err := SeqJPiP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, sink, err := v.Run(SimConfig(3, RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if sink.Checksum() != seq.Checksum {
		t.Fatal("fault-free JPiP-FT differs from the sequential baseline")
	}
	if rep.Faults != 0 || rep.Degradations != 0 || rep.Reconfigs != 0 {
		t.Fatalf("fault-free run reported faults=%d degradations=%d reconfigs=%d", rep.Faults, rep.Degradations, rep.Reconfigs)
	}
}

// TestJPiPFTDegradesUnderInjection: with the inset decoder failing
// persistently, the retry budget exhausts, the fault manager swaps in
// the uncompressed source, and the run finishes without error.
func TestJPiPFTDegradesUnderInjection(t *testing.T) {
	cfg := smallJPiP(1)
	cfg.FT = true
	cfg.Frames = 12
	v := NewJPiPVariant("jpip-ft", cfg)
	rcfg := SimConfig(3, RunOptions{})
	rcfg.Faults = &hinch.SeededFaults{Task: "jdec", From: 1, Kind: hinch.FaultError}
	rep, sink, err := v.Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degradations == 0 || rep.Reconfigs != 1 {
		t.Fatalf("degradations=%d reconfigs=%d, want degradation and exactly one reconfiguration", rep.Degradations, rep.Reconfigs)
	}
	if rep.Faults == 0 || rep.Retries == 0 {
		t.Fatalf("faults=%d retries=%d, want the retry policy exercised", rep.Faults, rep.Retries)
	}
	// Exhausted iterations hole; everything else (pre-fault compressed,
	// post-flip degraded) reaches the sink.
	if sink.Count() == 0 || sink.Count() >= cfg.Frames {
		t.Fatalf("sink saw %d frames of %d, want holes but not a dead pipeline", sink.Count(), cfg.Frames)
	}
}
