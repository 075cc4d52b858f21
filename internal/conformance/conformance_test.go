package conformance

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/xspcl"
)

// smokeSeeds is the fixed CI seed set: a spread chosen (see
// TestGeneratedProgramsValid's family census) so the smoke run covers
// every program family — multi-source, EOS-driven, event-driven and
// plain chains.
var smokeSeeds = []uint64{
	0, 1, 2, 3, 7, 9, 8, 13, // single-source: event-driven and plain, EOS and fixed-length
	23, 28, 30, 38, 40, 48, 51, 55, // multi-source: several roots per iteration race to take one buffer set
}

// smokeTable is the conformance CI gate: one row per (family, seeds,
// worker counts, traced), each run with schedule perturbation by the
// test named in the row (subtest names follow name's format over the
// seed). scripts/conformance.sh smoke runs every row under -race.
var smokeTable = []struct {
	test, name string
	fam        Family
	seeds      []uint64
	workers    []int
	traced     bool
}{
	{"TestConformanceSmoke", "%d", FamilyBase, smokeSeeds, []int{2, 8}, false},
	// The multi-source half traced: the recorder's shard discipline
	// racing a perturbed schedule, and the trace invariants (span
	// nesting, span count vs. executed jobs) on generated programs —
	// contained faults and retries included — rather than the
	// hand-built apps the trace package tests use.
	{"TestConformanceTracedSmoke", "%d", FamilyBase, smokeSeeds[8:], []int{8}, true},
	{"TestConformanceTracedSmoke", "faulty/%d", FamilyFaulty, faultySeeds, []int{8}, true},
	{"TestReplicatedConformanceSmoke", "%d", FamilyReplicated, smokeSeeds, []int{1, 2, 4, 8}, false},
	{"TestCancelledConformanceSmoke", "%d", FamilyCancelled, smokeSeeds, []int{2, 8}, false},
	{"TestFaultyConformance", "seed%d", FamilyFaulty, faultySeeds, []int{1, 2, 4, 8}, false},
	{"TestConformanceSnapshotSmoke", "%d", FamilySnapshot, smokeSeeds[:4], []int{8}, false},
}

// faultySeeds covers every faulty mode twice (seed%3 selects the mode).
var faultySeeds = []uint64{0, 1, 2, 3, 4, 5}

// smoke runs the calling test's rows of smokeTable.
func smoke(t *testing.T) {
	for _, row := range smokeTable {
		if row.test != t.Name() {
			continue
		}
		for _, seed := range row.seeds {
			t.Run(fmt.Sprintf(row.name, seed), func(t *testing.T) {
				t.Parallel()
				if err := Check(seed, row.fam, Options{Perturb: true, Trace: row.traced, Workers: row.workers}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestConformanceSmoke runs the base family's smoke rows. With
// CONFORMANCE_SEED=<n> it instead replays that seed verbosely in every
// family at every worker count — the deterministic reproduction path
// for a failure found by the fuzzer, the long runner, or a CI smoke run.
func TestConformanceSmoke(t *testing.T) {
	if env := os.Getenv("CONFORMANCE_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("CONFORMANCE_SEED=%q: %v", env, err)
		}
		for fam := Family(0); fam < NumFamilies; fam++ {
			t.Run(fam.String(), func(t *testing.T) {
				if err := Check(seed, fam, Options{Perturb: true, Logf: t.Logf}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return
	}
	smoke(t)
}

func TestConformanceTracedSmoke(t *testing.T)     { smoke(t) }
func TestReplicatedConformanceSmoke(t *testing.T) { smoke(t) }
func TestCancelledConformanceSmoke(t *testing.T)  { smoke(t) }
func TestFaultyConformance(t *testing.T)          { smoke(t) }
func TestConformanceSnapshotSmoke(t *testing.T)   { smoke(t) }

// TestGeneratedReplicatedProgramsValid sweeps the replicated generator
// through validation and the round-trip, and asserts the injector
// actually replicates at least one stage of every program.
func TestGeneratedReplicatedProgramsValid(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		g, err := GenerateReplicated(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nrep := 0
		for _, n := range g.Prog.Components() {
			if n.Params[graph.ReplicateParam] != "" {
				nrep++
			}
		}
		if nrep == 0 {
			t.Fatalf("seed %d: injector left the program unreplicated", seed)
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
			t.Fatalf("seed %d: replicated round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", seed, a, b)
		}
	}
}

// TestGeneratedProgramsValid sweeps a seed range through generation,
// superplan construction and the emit→parse round-trip, and asserts the
// generator actually produces every program family it advertises.
func TestGeneratedProgramsValid(t *testing.T) {
	var multi, eos, events, plain int
	for seed := uint64(0); seed < 200; seed++ {
		g, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		allOn := map[string]bool{}
		for name := range g.Prog.Options() {
			allOn[name] = true
		}
		plan, err := graph.BuildPlan(g.Prog, allOn)
		if err != nil {
			t.Fatalf("seed %d: superplan: %v", seed, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: superplan validate: %v", seed, err)
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
		switch {
		case g.MultiSource:
			multi++
		case g.HasEvents:
			events++
		default:
			plain++
		}
		if g.Frames > 0 {
			eos++
		}
	}
	if multi == 0 || eos == 0 || events == 0 || plain == 0 {
		t.Fatalf("generator family census degenerate: multi=%d eos=%d events=%d plain=%d", multi, eos, events, plain)
	}
	t.Logf("family census over 200 seeds: multi=%d eos=%d events=%d plain=%d", multi, eos, events, plain)
}

// TestOracleMatchesSim pins the oracle itself: for a handful of
// event-free seeds the sequential evaluator must reproduce the sim
// backend's sink hashes exactly (the sim backend is the semantic
// reference carried over from the paper experiments).
func TestOracleMatchesSim(t *testing.T) {
	checked := 0
	for seed := uint64(0); seed < 64 && checked < 8; seed++ {
		g, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.HasEvents {
			continue
		}
		checked++
		obs, err := run(g, perturbation{backend: hinch.BackendSim, workers: 2})
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		if err := verify(g, obs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if checked == 0 {
		t.Fatal("no event-free seeds in range")
	}
}
