package conformance

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
)

// perturbation is everything one run varies besides the program: the
// backend and worker count, the schedule perturbation, a fault injector
// overriding the program's own, a cancel context, and which observers
// ride along.
type perturbation struct {
	backend hinch.Backend
	workers int
	hooks   hinch.TestHooks     // schedule perturbation; nil for none
	faults  hinch.FaultInjector // replaces g's injector when set
	ctx     context.Context     // cancels the run; nil runs to completion
	traced  bool                // flight recorder, validated and exported
	hammer  bool                // App.Snapshot hammered from a second goroutine
}

// Observation is everything externally visible about one run: how it
// ended, how many iterations were processed, the per-iteration sink
// hashes, the reconfiguration and fault-policy activity, and (traced
// runs) the Perfetto export.
type Observation struct {
	Backend    hinch.Backend
	Workers    int
	Outcome    hinch.Outcome
	Iterations int
	Sink       []SinkRec
	Reconfigs  int
	Requests   []int // delivered request count per creconf instance

	Faults, Retries, Degradations int64

	Trace []byte
}

// canon renders the observation parts that must be identical across
// deterministic runs (used to compare sim-vs-sim, including the run on
// the emit→parse round-tripped program).
func (o *Observation) canon() string {
	var b strings.Builder
	fmt.Fprintf(&b, "outcome=%s iters=%d reconfigs=%d reqs=%v faults=%d retries=%d degradations=%d\n",
		o.Outcome, o.Iterations, o.Reconfigs, o.Requests, o.Faults, o.Retries, o.Degradations)
	for _, r := range o.Sink {
		fmt.Fprintf(&b, "%d:%016x\n", r.Iter, r.H)
	}
	return b.String()
}

// run executes g's program once under p and collects the observation.
// It is the only place the harness builds and runs an App. Every run
// gets a fresh registry: conformance component instances hold per-run
// state. A traced run's recording is validated against its report —
// span tiling and the span-count/Jobs identity must survive
// cancellation and contained faults — before it is exported.
func run(g *Gen, p perturbation) (obs *Observation, err error) {
	defer func() {
		// The runtime surfaces dependency violations as panics (e.g. a
		// double completion, or a nil-payload type assertion in a
		// component that ran before its producer), and an escaped fault
		// panic means containment failed. Convert them into check
		// failures so the harness reports the seed instead of crashing
		// the fuzzer.
		if r := recover(); r != nil {
			obs, err = nil, fmt.Errorf("runtime panic: %v", r)
		}
	}()
	cfg := g.Config(p.backend, p.workers)
	cfg.Hooks = p.hooks
	if p.faults != nil {
		cfg.Faults = p.faults
	}
	cfg.Telemetry = p.hammer
	var rec *trace.Recorder
	if p.traced {
		rec = trace.New(0)
		cfg.Tracer = rec // conditional: a typed-nil Tracer would defeat the nil check
	}
	app, err := hinch.NewApp(g.Prog, Registry(), cfg)
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	var hammering sync.WaitGroup
	if p.hammer {
		// The observed run's sink output must stay bit-identical to an
		// unobserved one, and none of the lock-free reads may trip the
		// race detector.
		hammering.Add(1)
		go func() {
			defer hammering.Done()
			for !stop.Load() {
				if s := app.Snapshot(); s.Inflight < 0 || s.Retired < 0 {
					panic(fmt.Sprintf("snapshot invariant: %+v", s))
				}
			}
		}()
	}
	rep, err := app.RunContext(p.ctx, g.Iters)
	stop.Store(true)
	hammering.Wait()
	if err != nil {
		return nil, err
	}
	snk, ok := app.Component(g.SinkName).(*csink)
	if !ok {
		return nil, fmt.Errorf("sink %q missing after run", g.SinkName)
	}
	obs = &Observation{
		Backend:      p.backend,
		Workers:      p.workers,
		Outcome:      rep.Outcome,
		Iterations:   rep.Iterations,
		Sink:         snk.records(),
		Reconfigs:    int(rep.Reconfigs),
		Faults:       rep.Faults,
		Retries:      rep.Retries,
		Degradations: rep.Degradations,
	}
	for _, rn := range g.Reconfs {
		if c, ok := app.Component(rn).(*creconf); ok {
			obs.Requests = append(obs.Requests, int(c.reqs.Load()))
		}
	}
	if rec != nil {
		if err := trace.Validate(rec, rep); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		obs.Trace = buf.Bytes()
	}
	return obs, nil
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

// cancelAt is a FaultInjector that never injects faults; it fires a
// context cancel the first time the named task executes at or past the
// target iteration. Injection happens at dispatch, before the component
// runs, and skipped (already-cancelled) jobs never consult the
// injector, so on the sim backend the cancel lands at one exact point
// in the virtual-time schedule — the lever that makes cancelled sim
// runs replayable.
type cancelAt struct {
	task   string
	iter   int
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelAt) Inject(task string, iter, attempt int) hinch.Fault {
	if task == c.task && iter >= c.iter && c.fired.CompareAndSwap(false, true) {
		c.cancel()
	}
	return hinch.Fault{}
}
