package conformance

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"xspcl/internal/analysis"
	"xspcl/internal/hinch"
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
	// of (seed, worker count, family), so a failing seed replays the
	// same schedule pressure.
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

// Family selects the generated programs Check runs the battery on and
// the family's extras.
type Family int

const (
	// FamilyBase runs Generate's programs as built.
	FamilyBase Family = iota
	// FamilyReplicated runs GenerateReplicated's programs: fixed and
	// auto widths, resolved at load, with the stream capacity they call
	// for, while the output must stay bit-identical.
	FamilyReplicated
	// FamilyCancelled runs Generate's programs cancelled mid-run: five
	// sim runs cancelled in-band when the sink reaches the midpoint must
	// agree byte for byte (observation and Perfetto export), and a
	// wall-clock cancel races every real run.
	FamilyCancelled
	// FamilyFaulty runs GenerateFaulty's degradable programs under their
	// injection schedule; the analyzer must bless them outright.
	FamilyFaulty
	// FamilySnapshot runs Generate's programs while a second goroutine
	// hammers App.Snapshot: an observed run must match an unobserved one.
	FamilySnapshot
	// NumFamilies counts the families (for iteration in tests).
	NumFamilies
)

// families is what each family contributes to the one battery: its
// generator, the salt that separates its schedule perturbation from the
// other families' on the same (seed, workers), and its extras.
var families = [NumFamilies]struct {
	name   string
	gen    func(seed uint64) (*Gen, error)
	salt   []uint64
	cancel bool // the cancellation extras
	hammer bool // snapshot hammer on the round-tripped sim and every real run
}{
	FamilyBase:       {name: "base", gen: Generate},
	FamilyReplicated: {name: "replicated", gen: GenerateReplicated, salt: []uint64{0x5e}},
	FamilyCancelled:  {name: "cancelled", gen: Generate, salt: []uint64{0xca}, cancel: true},
	FamilyFaulty:     {name: "faulty", gen: GenerateFaulty, salt: []uint64{0xfa}},
	FamilySnapshot:   {name: "snapshot", gen: Generate, hammer: true},
}

func (f Family) String() string { return families[f].name }

// Check generates seed's program in family fam and runs the
// differential battery on it: the analyzer precheck, the emit→parse
// round-trip, the sim backend twice (built and round-tripped program,
// which must agree on every observable) judged by the oracle, the
// family's extras, and the real backend at each worker count judged by
// the oracle. Any divergence is returned as an error prefixed with the
// family and seed, so CONFORMANCE_SEED=<n> replays it exactly.
func Check(seed uint64, fam Family, opt Options) (err error) {
	f := families[fam]
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s seed %d: %w", f.name, seed, err)
		}
	}()
	if len(opt.Workers) == 0 {
		opt.Workers = []int{1, 2, 4, 8}
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	g, err := f.gen(seed)
	if err != nil {
		return err
	}
	n := g.ExpectedIterations()
	logf("%s seed %d: iters=%d frames=%d depth=%d cap=%d cells=%d opts=%d trigs=%d multi=%v",
		f.name, seed, g.Iters, g.Frames, g.Depth, g.StreamCap, g.NCells, len(g.Prog.Options()), len(g.Triggers), g.MultiSource)

	// Static-analyzer precheck: the generators only build programs
	// whose every read is defined, that carry no formats and whose every
	// option can be enabled, so a reads, formats or reconfig verdict is
	// a generator or analyzer bug. The runs below cross-validate the
	// other direction: a program the analyzer passed must run to
	// completion, with the predicted sink output, on every backend and
	// worker count. The faulty family
	// builds exactly the shape the faults pass demands, so there any
	// finding at all is an analyzer regression.
	rep, err := analysis.Analyze(g.Prog, analysis.Options{Catalog: Registry()})
	if err != nil {
		return fmt.Errorf("analyzer: %w", err)
	}
	for _, pass := range []string{analysis.PassReads, analysis.PassFormats, analysis.PassReconfig} {
		if errs := rep.ErrorsByPass(pass); len(errs) > 0 {
			return fmt.Errorf("%s pass flagged a generator-built program: %s", pass, errs[0].Message)
		}
	}
	if g.Injector != nil {
		if rep.HasErrors() || rep.Count(analysis.Warning) > 0 {
			return fmt.Errorf("analyzer flagged a clean degradable program: %+v", rep.Findings)
		}
		if nc := len(g.Prog.Configurations()); nc != 2 {
			return fmt.Errorf("%d reachable configurations, want 2", nc)
		}
	}

	// Round-trip: the emitted XML, policy and replicate attributes
	// included, must parse back to the same tree.
	xml, err := xspcl.EmitXML(g.Prog)
	if err != nil {
		return fmt.Errorf("emit: %w", err)
	}
	rt := *g
	if rt.Prog, err = xspcl.Load(xml); err != nil {
		return fmt.Errorf("reparse emitted XML: %w", err)
	}
	if a, b := g.Prog.String(), rt.Prog.String(); a != b {
		return fmt.Errorf("emit/parse round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", a, b)
	}

	// Sim twice — once on the built program, once on the round-tripped
	// one (observed, in the snapshot family). The sim backend is
	// deterministic, so the runs must agree on every
	// observable, including event/reconfiguration order.
	sim := perturbation{backend: hinch.BackendSim, workers: 3, traced: opt.Trace}
	obs, err := run(g, sim)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	sim.hammer = f.hammer
	obs2, err := run(&rt, sim)
	if err != nil {
		return fmt.Errorf("sim(round-tripped): %w", err)
	}
	if a, b := obs.canon(), obs2.canon(); a != b {
		return fmt.Errorf("sim runs diverged between built and round-tripped program:\n--- built ---\n%s--- round-tripped ---\n%s", a, b)
	}
	if err := verify(g, obs); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	if f.cancel {
		// Cancellation must not cost the sim its replayability: five
		// runs, each cancelled in-band at the same schedule point, agree
		// byte for byte on the observation and the exported trace.
		var first *Observation
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			p := sim
			p.traced, p.ctx, p.faults = true, ctx, &cancelAt{task: g.SinkName, iter: n / 2, cancel: cancel}
			obs, err := run(g, p)
			cancel()
			switch {
			case err != nil:
				return fmt.Errorf("sim cancel run %d: %w", i, err)
			case obs.Outcome != hinch.OutcomeCancelled || obs.Iterations >= n:
				return fmt.Errorf("sim cancel run %d: outcome %q after %d of %d iterations despite a midpoint cancel", i, obs.Outcome, obs.Iterations, n)
			case first == nil:
				first = obs
			case first.canon() != obs.canon():
				return fmt.Errorf("cancelled sim runs diverged (run 0 vs %d):\n--- run 0 ---\n%s--- run %d ---\n%s", i, first.canon(), i, obs.canon())
			case !bytes.Equal(first.Trace, obs.Trace):
				return fmt.Errorf("cancelled sim trace diverged between run 0 (%d bytes) and run %d (%d bytes)", len(first.Trace), i, len(obs.Trace))
			}
		}
		if err := verify(g, first); err != nil {
			return fmt.Errorf("sim cancelled: %w", err)
		}
		logf("%s seed %d: sim cancelled at %d/%d iterations, 5 runs byte-identical (%d trace bytes)",
			f.name, seed, first.Iterations, n, len(first.Trace))
	}

	for _, w := range opt.Workers {
		p := perturbation{backend: hinch.BackendReal, workers: w, traced: opt.Trace, hammer: f.hammer}
		if opt.Perturb {
			p.hooks = &perturb{seed: mix(append([]uint64{seed, uint64(w)}, f.salt...)...)}
		}
		cancel := func() {}
		if f.cancel {
			// A wall-clock cancel races the run. The delay is a pure
			// function of (seed, workers), so a failing combination
			// replays the same race window; the outcome of the race is
			// not — a completed and a cancelled run are each judged by
			// their own clause of the oracle.
			delay := time.Duration(mix(seed, uint64(w))%2000) * time.Microsecond
			p.ctx, cancel = context.WithTimeout(context.Background(), delay)
		}
		obs, err := run(g, p)
		cancel()
		if err == nil {
			err = verify(g, obs)
		}
		if err != nil {
			return fmt.Errorf("real/%dw: %w", w, err)
		}
		logf("%s seed %d: real/%dw ok (%s, %d iterations, %d sink records, reconfigs=%d faults=%d retries=%d degradations=%d)",
			f.name, seed, w, obs.Outcome, obs.Iterations, len(obs.Sink), obs.Reconfigs, obs.Faults, obs.Retries, obs.Degradations)
	}
	return nil
}
