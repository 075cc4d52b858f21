package analysis

import (
	"fmt"
	"strings"

	"xspcl/internal/graph"
)

// The formats pass reconciles typed stream formats across every
// reachable configuration, in the Joule/KPN interface-reconciliation
// mold (Zaichenkov et al.): stream declarations contribute ground
// format terms, component interface signatures contribute parametric
// constraints, and the internal/format solver unifies them with
// arithmetic propagation. Unsatisfiable wiring is an Error with the
// narrative constraint chain that collided; a typed stream whose
// layout or dimensions stay free is a Warning (under-constrained: the
// runtime would have to guess).
// The solved substitution of the initial configuration is published in
// Report.Formats so tooling (xspclvet -formats) and the runtime
// (hinch.NewApp) can specialise generic components per context.

// FormatsReport is the solved substitution of the initial
// configuration: stream format terms and inferred component parameters.
type FormatsReport struct {
	// Streams maps stream name -> solved format term ('?' marks
	// unresolved slots). Only streams with any format information
	// appear.
	Streams map[string]string `json:"streams,omitempty"`
	// Params maps component -> parameter -> solver-inferred value for
	// parameters the spec omitted but the network determines.
	Params map[string]map[string]string `json:"params,omitempty"`
}

func (a *analyzer) formats() {
	for _, ci := range a.infos {
		sol, err := graph.SolveFormats(a.prog, ci.cfg.Enabled, a.opt.Catalog)
		if err != nil {
			// Constraint-construction failures (e.g. a non-integer
			// parameter bound to an interface variable) are wiring
			// errors, rendered like any other diagnosis.
			a.add(Finding{
				Pass:     PassFormats,
				Severity: Error,
				Message:  strings.TrimPrefix(err.Error(), "graph: "),
				Config:   ci.key,
			})
			continue
		}
		for _, c := range sol.Conflicts {
			msg := "format mismatch"
			if c.Stream != "" {
				msg = fmt.Sprintf("format mismatch on stream %q", c.Stream)
			}
			a.add(Finding{
				Pass:     PassFormats,
				Severity: Error,
				Message:  fmt.Sprintf("%s: %s", msg, c.Detail),
				Config:   ci.key,
				Stream:   c.Stream,
				Cycle:    c.Chain,
			})
		}
		for _, u := range sol.Unresolved {
			a.add(Finding{
				Pass:     PassFormats,
				Severity: Warning,
				Message:  fmt.Sprintf("stream %q is typed but under-constrained: %s cannot be resolved (declare it or tighten a component interface)", u.Stream, u.Slot),
				Config:   ci.key,
				Stream:   u.Stream,
			})
		}
		if ci.cfg.Initial && a.rep.Formats == nil {
			fr := &FormatsReport{Streams: sol.Streams, Params: sol.Params}
			if len(fr.Streams) > 0 || len(fr.Params) > 0 {
				a.rep.Formats = fr
			}
		}
	}
}
