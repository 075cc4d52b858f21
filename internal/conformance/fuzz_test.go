package conformance

import (
	"testing"

	"xspcl/internal/xspcl"
)

// FuzzConformance is the native fuzzing entry point: every fuzz input
// is a generator seed and a family, and the whole differential battery
// runs on it (round-trip, sim determinism, sim and real vs. oracle, the
// family's extras, schedule perturbation). Run with:
//
//	go test ./internal/conformance/ -fuzz=FuzzConformance -fuzztime=5m
//
// A crasher's seed replays in every family with CONFORMANCE_SEED=<n> go
// test -run TestConformanceSmoke ./internal/conformance/ -v.
func FuzzConformance(f *testing.F) {
	for i, s := range smokeSeeds {
		f.Add(s, uint8(i%int(NumFamilies)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, fam uint8) {
		if err := Check(seed, Family(fam%uint8(NumFamilies)), Options{Workers: []int{4}, Perturb: true}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRoundTrip fuzzes only the cheap structural pipeline — generate,
// emit, reparse, compare — so it explores far more seeds per second
// than FuzzConformance.
func FuzzRoundTrip(f *testing.F) {
	for _, s := range smokeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		xml, err := xspcl.EmitXML(g.Prog)
		if err != nil {
			t.Fatalf("seed %d: emit: %v", seed, err)
		}
		prog2, err := xspcl.Load(xml)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if a, b := g.Prog.String(), prog2.String(); a != b {
			t.Fatalf("seed %d: round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", seed, a, b)
		}
	})
}
