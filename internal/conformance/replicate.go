package conformance

import (
	"fmt"

	"xspcl/internal/graph"
)

// This file is the replicated-program conformance family: it reuses the
// seeded generator and injects replicate= attributes onto the stateless
// spine stages; FamilyReplicated runs the same battery on it. Widths,
// auto ones included, are resolved once at load, and the stream
// capacity grows with them. Replication is pure scheduling — a
// replicated stage runs several consecutive iterations concurrently,
// each on its own per-iteration stream slots — so the oracle is
// unchanged: the sink hashes of a replicated program must be exactly
// those of the unreplicated one, on every backend, at every worker
// count and under schedule perturbation.

// replicateWidths is the attribute pool the injector draws from. The
// empty string leaves a stage unreplicated (width 1), so the family
// mixes replicated and serialised stages within one program.
var replicateWidths = []string{"", "2", "4", "auto"}

// GenerateReplicated builds the program for seed and then marks its
// cwork spine stages with seed-derived replicate attributes (widths 1,
// 2, 4 and auto, at least one stage always replicated). Only cwork is
// eligible: it is the one spine class registered stateless — creconf
// keeps mutable request state and csrc/csink/ctrig hold run state.
// The modified program is re-validated so the injection cannot outrun
// the grammar.
func GenerateReplicated(seed uint64) (*Gen, error) {
	g, err := Generate(seed)
	if err != nil {
		return nil, err
	}
	r := newRnd(mix(seed, 0x5e11ca7e))
	first := true
	for _, n := range g.Prog.Components() {
		if n.Class != "cwork" {
			continue
		}
		w := replicateWidths[r.intn(len(replicateWidths))]
		if first && w == "" {
			// Guarantee the family actually replicates something.
			w = replicateWidths[1+r.intn(len(replicateWidths)-1)]
		}
		if w == "" {
			continue
		}
		first = false
		n.Params[graph.ReplicateParam] = w
	}
	if err := g.Prog.Validate(Registry()); err != nil {
		return nil, fmt.Errorf("conformance: seed %d: replicated program invalid: %w", seed, err)
	}
	return g, nil
}
