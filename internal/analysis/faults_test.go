package analysis

import (
	"strings"
	"testing"

	"xspcl/internal/graph"
)

// ftProg builds src → manager "deg" (polling queue per the knobs)
// { option primary (on): p[@on_error] → p2; option backup (off): alt }
// → sink, the canonical degradable pipeline. bindings is the manager's
// binding list; inOption=false hoists the policied component out of
// the primary option (directly under the manager).
func ftProg(t *testing.T, queue string, bindings []graph.EventBinding, inOption bool) *graph.Program {
	t.Helper()
	b := graph.NewBuilder("ft")
	b.Stream("a").Stream("b").Stream("c")
	b.Queue("fq")
	p := b.Component("p", "work", graph.Ports{"in": "a", "out": "b"},
		graph.Params{graph.OnErrorParam: "retry:2"})
	p2 := b.Component("p2", "work", graph.Ports{"in": "b", "out": "c"}, nil)
	var primary *graph.Node
	mgrKids := []*graph.Node{}
	if inOption {
		primary = b.Option("primary", true, p, p2)
	} else {
		primary = b.Option("primary", true, p2)
		mgrKids = append(mgrKids, p)
	}
	mgrKids = append(mgrKids, primary,
		b.Option("backup", false,
			b.Component("alt", "work", graph.Ports{"in": "a", "out": "c"}, nil)))
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Manager("deg", queue, bindings, mgrKids...),
		b.Component("k", "sink", graph.Ports{"in": "c"}, nil),
	)
	prog, err := b.Program()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// onlyFaults isolates the faults pass so counter-example programs that
// also trip reconfig/reads diagnoses stay focused.
func onlyFaults() Options {
	return Options{Disable: map[string]bool{
		PassReads: true, PassReconfig: true, PassBindings: true,
	}}
}

// TestFaultsClean: a policied component under a queued manager whose
// fault bindings disable the enclosing option and enable a fallback is
// clean under every pass.
func TestFaultsClean(t *testing.T) {
	prog := ftProg(t, "fq", []graph.EventBinding{
		graph.On(graph.FaultEvent, graph.ActionDisable, "primary"),
		graph.On(graph.FaultEvent, graph.ActionEnable, "backup"),
	}, true)
	rep := analyze(t, prog, Options{})
	if rep.HasErrors() || rep.Count(Warning) > 0 {
		t.Fatalf("clean degradable pipeline produced findings: %+v", rep.Findings)
	}
	if rep.Configs != 2 {
		t.Fatalf("configs = %d, want 2", rep.Configs)
	}
}

// TestFaultsNoManager: a failure policy with no enclosing queued
// manager is an error — exhaustion has nowhere to send the fault event.
func TestFaultsNoManager(t *testing.T) {
	b := graph.NewBuilder("nomgr")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Component("p", "work", graph.Ports{"in": "a", "out": "b"},
			graph.Params{graph.OnErrorParam: "skip-iteration"}),
		b.Component("k", "sink", graph.Ports{"in": "b"}, nil),
	)
	rep := analyze(t, b.MustProgram(), onlyFaults())
	errs := findings(rep, PassFaults, Error)
	if len(errs) != 1 || !strings.Contains(errs[0].Message, "no enclosing manager polls a queue") {
		t.Fatalf("findings = %+v, want one no-manager error", rep.Findings)
	}
}

// TestFaultsUnhandled: the fault events reach a queue where no binding
// handles them — an error (first exhaustion becomes a fatal run error).
func TestFaultsUnhandled(t *testing.T) {
	prog := ftProg(t, "fq", []graph.EventBinding{
		graph.On("other", graph.ActionEnable, "backup"),
	}, true)
	rep := analyze(t, prog, onlyFaults())
	errs := findings(rep, PassFaults, Error)
	if len(errs) != 1 || !strings.Contains(errs[0].Message, `no manager binds the "fault" event`) {
		t.Fatalf("findings = %+v, want one unhandled-fault error", rep.Findings)
	}
}

// TestFaultsNoDisable: fault handling that never disables the failing
// component's option leaves it active after degradation — a warning.
func TestFaultsNoDisable(t *testing.T) {
	prog := ftProg(t, "fq", []graph.EventBinding{
		graph.On(graph.FaultEvent, graph.ActionEnable, "backup"),
	}, true)
	rep := analyze(t, prog, onlyFaults())
	warns := findings(rep, PassFaults, Warning)
	if len(warns) != 1 || !strings.Contains(warns[0].Message, "stays active after degradation") {
		t.Fatalf("findings = %+v, want one no-disable warning", rep.Findings)
	}
	if n := len(findings(rep, PassFaults, Error)); n != 0 {
		t.Fatalf("unexpected errors: %+v", rep.Findings)
	}
}

// TestFaultsNoFallback: fault handling that disables the failing option
// without enabling a fallback degrades to a hole, not a substitute — a
// warning.
func TestFaultsNoFallback(t *testing.T) {
	prog := ftProg(t, "fq", []graph.EventBinding{
		graph.On(graph.FaultEvent, graph.ActionDisable, "primary"),
	}, true)
	rep := analyze(t, prog, onlyFaults())
	warns := findings(rep, PassFaults, Warning)
	if len(warns) != 1 || !strings.Contains(warns[0].Message, "enables a fallback option") {
		t.Fatalf("findings = %+v, want one no-fallback warning", rep.Findings)
	}
}

// TestFaultsNotInOption: a policied component outside every option
// cannot be disabled by any fault action — a warning.
func TestFaultsNotInOption(t *testing.T) {
	prog := ftProg(t, "fq", []graph.EventBinding{
		graph.On(graph.FaultEvent, graph.ActionDisable, "primary"),
		graph.On(graph.FaultEvent, graph.ActionEnable, "backup"),
	}, false)
	rep := analyze(t, prog, onlyFaults())
	warns := findings(rep, PassFaults, Warning)
	if len(warns) != 1 || !strings.Contains(warns[0].Message, "not enclosed by any option") {
		t.Fatalf("findings = %+v, want one not-in-option warning", rep.Findings)
	}
}
