package conformance

import (
	"testing"

	"xspcl/internal/analysis"
)

// TestBrokenFlagged is the negative half of the analyzer's conformance
// cross-validation: every defect GenerateBroken plants, across the
// smoke-seed shapes, must be rejected by the right pass with an error
// finding. (The positive half — generator-built programs must come out
// with every read defined and run to completion — is the precheck
// inside Check.)
func TestBrokenFlagged(t *testing.T) {
	wantPass := map[BreakKind]string{
		BreakReadBeforeWrite:   analysis.PassReads,
		BreakUnorderedWriter:   analysis.PassReads,
		BreakStarvedReader:     analysis.PassReads,
		BreakUnreachableOption: analysis.PassReconfig,
		BreakFormatMismatch:    analysis.PassFormats,
	}
	for kind := BreakKind(0); kind < NumBreakKinds; kind++ {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, seed := range smokeSeeds {
				g, err := GenerateBroken(seed, kind)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rep, err := analysis.Analyze(g.Prog, analysis.Options{Catalog: Registry()})
				if err != nil {
					t.Fatalf("seed %d: Analyze: %v", seed, err)
				}
				if errs := rep.ErrorsByPass(wantPass[kind]); len(errs) == 0 {
					t.Errorf("seed %d: %s defect not flagged by the %s pass (findings: %+v)",
						seed, kind, wantPass[kind], rep.Findings)
				}
			}
		})
	}
}
