package conformance

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"xspcl/internal/analysis"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
	"xspcl/internal/xspcl"
)

// Options configures one conformance check.
type Options struct {
	// Workers lists the real-backend worker counts to run. Defaults to
	// 1, 2, 4, 8.
	Workers []int
	// Perturb enables schedule exploration on the real backend:
	// seed-derived yield/sleep points at scheduler boundaries and
	// reseeded steal-victim order. The perturbation is a pure function
	// of (seed, worker count), so a failing seed replays the same
	// schedule pressure.
	Perturb bool
	// Trace attaches the flight recorder to every run and validates
	// the recorded trace against the run's report (span nesting, span
	// count vs. executed jobs). Combined with Perturb under the race
	// detector this doubles as the recorder's concurrency check: the
	// tracer's shard discipline must hold on every explored schedule.
	Trace bool
	// Logf, when set, receives progress lines (plug in t.Logf).
	Logf func(format string, args ...any)
}

// Observation is everything externally visible about one run: how many
// iterations were processed, the per-iteration sink hashes, and the
// reconfiguration activity.
type Observation struct {
	Backend    string
	Workers    int
	Iterations int
	Sink       []SinkRec
	Reconfigs  int
	Requests   []int // delivered request count per creconf instance
}

// canon renders the observation parts that must be identical across
// deterministic runs (used to compare sim-vs-sim, including the run on
// the emit→parse round-tripped program).
func (o *Observation) canon() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iters=%d reconfigs=%d reqs=%v\n", o.Iterations, o.Reconfigs, o.Requests)
	for _, r := range o.Sink {
		fmt.Fprintf(&b, "%d:%016x\n", r.Iter, r.H)
	}
	return b.String()
}

// perturb implements hinch.TestHooks: a seed-derived schedule
// perturbation. At every instrumented boundary it draws from a counter
// hash and occasionally sleeps a few microseconds (stretching windows
// between lock-free probes and their uses) or yields the goroutine
// (inviting a concurrent worker into the window). Steal-victim
// sequences are reseeded per worker so exploration visits victim
// orders the default seeding never produces.
type perturb struct {
	seed uint64
	ctr  atomic.Uint64
}

func (p *perturb) Yield(pt hinch.YieldPoint) {
	c := p.ctr.Add(1)
	x := mix(p.seed, c, uint64(pt))
	if pt == hinch.YieldAcquire {
		// Buffer acquisition runs once per iteration — rare but
		// high-leverage: any job of the same iteration dispatched while
		// the acquire is parked here races the publication of the
		// iteration's buffer set. Stretch it nearly every time.
		if x%4 != 0 {
			time.Sleep(time.Duration(1+x%20) * time.Microsecond)
		} else {
			runtime.Gosched()
		}
		return
	}
	switch {
	case x%127 == 0:
		time.Sleep(time.Duration(1+x%3) * time.Microsecond)
	case x%11 == 0:
		runtime.Gosched()
	}
}

func (p *perturb) StealSeed(worker int) uint64 {
	return mix(p.seed, uint64(worker)) | 1 // xorshift state must be non-zero
}

// Check generates the program for seed and runs the full differential
// battery: emit→parse round-trip, sim determinism (original vs.
// round-tripped program), sim vs. oracle, and real backend at each
// worker count vs. oracle. Any divergence is returned as an error
// prefixed with the seed, so CONFORMANCE_SEED=<n> replays it exactly.
func Check(seed uint64, opt Options) error {
	if len(opt.Workers) == 0 {
		opt.Workers = []int{1, 2, 4, 8}
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	g, err := Generate(seed)
	if err != nil {
		return err
	}
	logf("seed %d: iters=%d frames=%d depth=%d cap=%d cells=%d opts=%d trigs=%d multi=%v",
		seed, g.Iters, g.Frames, g.Depth, g.StreamCap, g.NCells, len(g.Options), len(g.Triggers), g.MultiSource)

	// Static-analyzer precheck: the generator only builds live programs,
	// so a deadlock verdict here is an analyzer false positive (an
	// unsound "deadlocked" call). The runs below then cross-validate the
	// other direction: a program the analyzer declared deadlock-free
	// must run to completion on every backend and worker count.
	rep, err := analysis.Analyze(g.Prog, analysis.Options{Catalog: Registry()})
	if err != nil {
		return fmt.Errorf("seed %d: analyzer: %w", seed, err)
	}
	if errs := rep.ErrorsByPass(analysis.PassDeadlock); len(errs) > 0 {
		return fmt.Errorf("seed %d: analyzer declared a generator-built (live-by-construction) program deadlocked: %s", seed, errs[0].Message)
	}
	// Same for formats: generated streams carry no declared formats and
	// every conformance class's signature is satisfiable over free
	// terms, so any formats verdict is a solver false positive.
	if errs := rep.ErrorsByPass(analysis.PassFormats); len(errs) > 0 {
		return fmt.Errorf("seed %d: formats pass flagged a format-free generated program: %s", seed, errs[0].Message)
	}

	// Round-trip: the emitted XML must parse back to the same tree.
	xml, err := xspcl.EmitXML(g.Prog)
	if err != nil {
		return fmt.Errorf("seed %d: emit: %w", seed, err)
	}
	prog2, err := xspcl.Load(xml)
	if err != nil {
		return fmt.Errorf("seed %d: reparse emitted XML: %w", seed, err)
	}
	if a, b := g.Prog.String(), prog2.String(); a != b {
		return fmt.Errorf("seed %d: emit/parse round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", seed, a, b)
	}

	// Sim twice — once on the built program, once on the round-tripped
	// one. The sim backend is deterministic, so the runs must agree on
	// every observable, including event/reconfiguration order.
	sim, err := runOnce(g, g.Prog, hinch.BackendSim, 3, nil, opt.Trace, false, false)
	if err != nil {
		return fmt.Errorf("seed %d: sim: %w", seed, err)
	}
	sim2, err := runOnce(g, prog2, hinch.BackendSim, 3, nil, opt.Trace, false, false)
	if err != nil {
		return fmt.Errorf("seed %d: sim(round-tripped): %w", seed, err)
	}
	if a, b := sim.canon(), sim2.canon(); a != b {
		return fmt.Errorf("seed %d: sim runs diverged between built and round-tripped program:\n--- built ---\n%s--- round-tripped ---\n%s", seed, a, b)
	}
	if err := verify(g, sim); err != nil {
		return fmt.Errorf("seed %d: sim: %w", seed, err)
	}

	for _, w := range opt.Workers {
		var hooks hinch.TestHooks
		if opt.Perturb {
			hooks = &perturb{seed: mix(seed, uint64(w))}
		}
		real, err := runOnce(g, g.Prog, hinch.BackendReal, w, hooks, opt.Trace, false, false)
		if err != nil {
			return fmt.Errorf("seed %d: real/%dw: %w", seed, w, err)
		}
		if err := verify(g, real); err != nil {
			return fmt.Errorf("seed %d: real/%dw: %w", seed, w, err)
		}
		logf("seed %d: real/%dw ok (%d sink records, %d reconfigs)", seed, w, len(real.Sink), real.Reconfigs)
	}
	return nil
}

// runOnce executes prog once on the given backend and collects the
// observation. Every run gets a fresh registry: conformance component
// instances hold per-run state. With traced set, the flight recorder
// rides along and the recorded trace is validated against the report
// before the observation is returned. With tune set, the autotuner runs
// (resizing replica widths and stream depths mid-run); the observation
// must be unaffected, which is exactly what CheckReplicated asserts.
func runOnce(g *Gen, prog *graph.Program, backend hinch.Backend, cores int, hooks hinch.TestHooks, traced, tune, observe bool) (obs *Observation, err error) {
	defer func() {
		// The runtime surfaces dependency violations as panics (e.g. a
		// double completion, or a nil-payload type assertion in a
		// component that ran before its producer).
		// Convert them into check failures so the harness reports the
		// seed instead of crashing the fuzzer.
		if r := recover(); r != nil {
			obs, err = nil, fmt.Errorf("runtime panic: %v", r)
		}
	}()
	name := "sim"
	if backend == hinch.BackendReal {
		name = "real"
	}
	cfg := hinch.Config{
		Backend:        backend,
		Cores:          cores,
		PipelineDepth:  g.Depth,
		StreamCapacity: g.StreamCap,
		Hooks:          hooks,
		Autotune:       tune,
		Telemetry:      observe,
	}
	if tune && backend == hinch.BackendReal {
		// Tick fast so even short perturbed runs see live resizes.
		cfg.TuneEpochWall = 200 * time.Microsecond
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.New(0)
		cfg.Tracer = rec // conditional: a typed-nil Tracer would defeat the nil check
	}
	app, err := hinch.NewApp(prog, Registry(), cfg)
	if err != nil {
		return nil, err
	}
	var snapStop chan struct{}
	var snapDone chan int
	if observe {
		// Hammer App.Snapshot from a second goroutine for the whole
		// run: the observed run's sink output must stay bit-identical
		// to an unobserved one, and none of the lock-free reads may
		// trip the race detector.
		snapStop = make(chan struct{})
		snapDone = make(chan int, 1)
		go func() {
			n := 0
			for {
				select {
				case <-snapStop:
					snapDone <- n
					return
				default:
				}
				s := app.Snapshot()
				if s.Inflight < 0 || s.Retired < 0 {
					panic(fmt.Sprintf("snapshot invariant: %+v", s))
				}
				n++
			}
		}()
	}
	rep, err := app.Run(g.Iters)
	if observe {
		close(snapStop)
		<-snapDone
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if err := trace.Validate(rec, rep); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	snk, ok := app.Component(g.SinkName).(*csink)
	if !ok {
		return nil, fmt.Errorf("sink %q missing after run", g.SinkName)
	}
	obs = &Observation{
		Backend:    name,
		Workers:    cores,
		Iterations: rep.Iterations,
		Sink:       snk.records(),
		Reconfigs:  rep.Reconfigs,
	}
	for _, rn := range g.Reconfs {
		if c, ok := app.Component(rn).(*creconf); ok {
			obs.Requests = append(obs.Requests, len(c.requests()))
		}
	}
	return obs, nil
}

// verify judges one observation against the sequential oracle.
//
// The processed-iteration count and the sink-hash prefix [0, N) are
// exact. Sink records at iterations >= N can appear on the real backend
// through the documented benign EOS-cancellation race (a job observes
// cancelled==false just before cancellation and runs redundantly); at
// most one pipeline window of them is tolerated and their payload is
// unspecified (cancelled upstream stages were skipped).
//
// For event-driven programs the hash at iteration i must be explained
// by SOME joint option subset (option states are fixed within an
// iteration by the manager's entry snapshot, but which iteration a
// trigger's effect lands on is schedule-dependent). The subset sequence
// must additionally be reachable: the minimal number of single-option
// transitions from the declared defaults is bounded by how many trigger
// events can have fired, counted over one pipeline window past the end
// (a trigger on a post-EOS cancelled iteration can still retarget
// earlier in-flight iterations).
func verify(g *Gen, obs *Observation) error {
	n := g.ExpectedIterations()
	if obs.Iterations != n {
		return fmt.Errorf("processed %d iterations, oracle expects %d", obs.Iterations, n)
	}

	seen := map[int]uint64{}
	extras := 0
	for _, r := range obs.Sink {
		if _, dup := seen[r.Iter]; dup {
			return fmt.Errorf("sink recorded iteration %d twice", r.Iter)
		}
		seen[r.Iter] = r.H
		if r.Iter >= n {
			extras++
		}
		if r.Iter < 0 {
			return fmt.Errorf("sink recorded negative iteration %d", r.Iter)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := seen[i]; !ok {
			return fmt.Errorf("sink missing iteration %d of %d", i, n)
		}
	}
	maxExtra := 0
	if obs.Backend == "real" {
		maxExtra = g.Depth + 1
	}
	if extras > maxExtra {
		return fmt.Errorf("sink recorded %d iterations beyond the run's %d (max %d tolerated on %s)", extras, n, maxExtra, obs.Backend)
	}

	horizon := n + g.Depth + 1
	firings := g.MaxFirings(horizon)
	if obs.Reconfigs > firings {
		return fmt.Errorf("%d reconfigurations observed but at most %d trigger firings possible", obs.Reconfigs, firings)
	}
	if !g.HasEvents {
		if obs.Reconfigs != 0 {
			return fmt.Errorf("%d reconfigurations observed in an event-free program", obs.Reconfigs)
		}
		enabled := g.DefaultOptions()
		for i := 0; i < n; i++ {
			if want := g.Expected(i, enabled); seen[i] != want {
				return fmt.Errorf("iteration %d: sink hash %016x, oracle %016x", i, seen[i], want)
			}
		}
		return nil
	}
	return verifySubsets(g, seen, n, firings)
}

// verifySubsets checks event-driven runs against the reachable
// configuration lattice (graph.Configurations): every iteration's hash
// must be explained by some configuration reachable from the declared
// defaults under the managers' binding transition relation — not just
// any of the 2^k option subsets — and the cheapest consistent
// configuration schedule (counting configuration changes, starting
// from the initial configuration) must not need more changes than
// trigger firings could have caused. Both directions are sound for
// generated programs: option states snapshot at iteration entry after
// whole-event application, and the generator's forward bindings carry
// no local actions, so the runtime never rests in a state the
// collapsed-forward model misses.
func verifySubsets(g *Gen, seen map[int]uint64, n, firings int) error {
	cfgs := g.Prog.Configurations()
	nc := len(cfgs)
	if nc > 64 {
		return fmt.Errorf("%d reachable configurations exceed the verifier's 64-state mask", nc)
	}

	match := make([]uint64, n) // bitmask over cfgs explaining iteration i
	for i := 0; i < n; i++ {
		for s, c := range cfgs {
			if g.Expected(i, c.Enabled) == seen[i] {
				match[i] |= 1 << s
			}
		}
		if match[i] == 0 {
			var tried []string
			for _, c := range cfgs {
				tried = append(tried, fmt.Sprintf("%s:%016x", c.Key(), g.Expected(i, c.Enabled)))
			}
			return fmt.Errorf("iteration %d: sink hash %016x matches no reachable configuration (oracle: %s)", i, seen[i], strings.Join(tried, " "))
		}
	}

	// DP over reachable configurations: cost[s] = minimal configuration
	// changes to sit in configuration s at the current iteration. Every
	// change needs at least one trigger firing; jumps between any two
	// reachable states are allowed (several firings can land between two
	// consecutive iterations), which only loosens the bound.
	const inf = int(^uint(0) >> 1)
	cost := make([]int, nc)
	next := make([]int, nc)
	for s, c := range cfgs {
		cost[s] = inf
		if c.Initial {
			cost[s] = 0
		}
	}
	for i := 0; i < n; i++ {
		for s := range next {
			next[s] = inf
		}
		for from := 0; from < nc; from++ {
			if cost[from] == inf {
				continue
			}
			for to := 0; to < nc; to++ {
				if match[i]&(1<<to) == 0 {
					continue
				}
				c := cost[from]
				if from != to {
					c++
				}
				if c < next[to] {
					next[to] = c
				}
			}
		}
		cost, next = next, cost
	}
	best := inf
	for _, c := range cost {
		if c < best {
			best = c
		}
	}
	if best > firings {
		return fmt.Errorf("explaining the sink hashes needs >= %d configuration changes but at most %d trigger firings were possible", best, firings)
	}
	return nil
}
