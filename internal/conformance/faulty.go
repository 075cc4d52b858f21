package conformance

import (
	"fmt"
	"time"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// This file is the fault-injection family: a seeded family of
// degradable programs (GenerateFaulty) paired with a deterministic
// injection schedule. The oracle predicts both configurations' output,
// and the battery (FamilyFaulty) asserts that the sim backend and the
// real backend at every worker count converge to the fallback — same
// holes, same hashes, same counter arithmetic.
//
// Each generated program is the canonical degradable pipeline
//
//	src → pre → manager "deg" (queue fq: fault→disable primary,
//	                                     fault→enable backup)
//	      { option primary (on):  p1[policy] → p2
//	        option backup  (off): b1 }
//	→ post → snk
//
// with a pure cwork spine (no cells), so the oracle per configuration
// is a straight mix chain. From iteration From on, every attempt of p1
// is faulted; the failure policy exhausts, the runtime emits a fault
// event, the manager flips primary→backup, and the rest of the run
// must produce the fallback hashes bit-identically on every backend.

// FaultyMode selects which policy leg a generated program exercises.
type FaultyMode int

const (
	// FaultyRetry: p1 declares retry:N with backoff; injected errors
	// exhaust the retries and each faulted iteration becomes a hole.
	FaultyRetry FaultyMode = iota
	// FaultySkip: p1 declares skip-iteration; injected panics are
	// contained and each faulted iteration becomes a hole.
	FaultySkip
	// FaultyDeadline: p1 declares a deadline; injected latency spikes
	// overrun it. Outputs stand (no holes) but the watchdog degrades.
	FaultyDeadline
)

func (m FaultyMode) String() string {
	if m < 0 || m > FaultyDeadline {
		return fmt.Sprintf("FaultyMode(%d)", int(m))
	}
	return [...]string{"retry", "skip", "deadline"}[m]
}

// Deadline-mode timing: the injected spike must dwarf the deadline,
// and the deadline must dwarf an honest job's cost (including OS noise
// on the real backend, where the watchdog measures wall time).
const (
	faultyDeadline = 20 * time.Millisecond
	faultyDelay    = 120 * time.Millisecond
)

// GenerateFaulty builds the degradable program for one seed. The mode,
// fault onset, retry budget and pipeline depth are all seed-derived;
// Iters leaves enough post-flip iterations that the fallback output is
// always observable. Its two configurations are ordinary oracle ops
// tagged with the options primary and backup.
func GenerateFaulty(seed uint64) (*Gen, error) {
	r := newRnd(seed)
	g := &Gen{
		SinkName:  "snk",
		HasEvents: true, // the runtime's fault event drives the manager
		Mode:      FaultyMode(seed % 3),
		From:      2 + int(seed%3),
		Retries:   1 + int(seed%3),
		Depth:     3 + int((seed/3)%3),
		StreamCap: 2,
	}
	g.Iters = g.From + g.Depth + 6
	var stamps [6]uint64 // src, pre, p1, p2, b1, post
	for i := range stamps {
		stamps[i] = r.next()
	}
	g.ops = []evalOp{g.sourceOp(0, stamps[0]), workOp(0, "", stamps[1], nil),
		workOp(0, "primary", stamps[2], nil), workOp(0, "primary", stamps[3], nil),
		workOp(0, "backup", stamps[4], nil), workOp(0, "", stamps[5], nil)}
	stamp := func(i int) graph.Params { return graph.Params{"stamp": fmt.Sprint(stamps[i])} }

	p1 := stamp(2)
	inj := &hinch.SeededFaults{Seed: seed, Task: "p1", From: g.From}
	switch g.Mode {
	case FaultyRetry:
		p1[graph.OnErrorParam] = fmt.Sprintf("retry:%d,backoff=2x,base=100us", g.Retries)
		inj.Kind = hinch.FaultError
	case FaultySkip:
		g.Retries = 0
		p1[graph.OnErrorParam] = "skip-iteration"
		inj.Kind = hinch.FaultPanic
	case FaultyDeadline:
		g.Retries = 0
		p1[graph.DeadlineParam] = faultyDeadline.String()
		inj.Kind = hinch.FaultDelay
		inj.Delay = faultyDelay
	}
	g.Injector = inj

	b := graph.NewBuilder(fmt.Sprintf("faulty-%d", seed))
	b.Stream("s0").Stream("s1").Stream("s2").Stream("s3")
	b.Queue("fq")
	b.Body(
		b.Component("src", "csrc", graph.Ports{"out": "s0"}, stamp(0)),
		b.Component("pre", "cwork", graph.Ports{"in": "s0", "out": "s1"}, stamp(1)),
		b.Manager("deg", "fq", []graph.EventBinding{
			graph.On(graph.FaultEvent, graph.ActionDisable, "primary"),
			graph.On(graph.FaultEvent, graph.ActionEnable, "backup"),
		},
			b.Option("primary", true,
				b.Component("p1", "cwork", graph.Ports{"in": "s1", "out": "s2"}, p1),
				b.Component("p2", "cwork", graph.Ports{"in": "s2", "out": "s3"}, stamp(3))),
			b.Option("backup", false,
				b.Component("b1", "cwork", graph.Ports{"in": "s1", "out": "s3"}, stamp(4)))),
		b.Component("post", "cwork", graph.Ports{"in": "s3", "out": "s3"}, stamp(5)),
		b.Component("snk", "csink", graph.Ports{"in": "s3"}, nil),
	)
	prog, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("conformance: faulty seed %d: %w", seed, err)
	}
	if err := prog.Validate(Registry()); err != nil {
		return nil, fmt.Errorf("conformance: faulty seed %d: %w", seed, err)
	}
	g.Prog = prog
	return g, nil
}
