package analysis

import (
	"strings"
	"testing"

	"xspcl/internal/graph"
)

// statelessCatalog extends the test catalog with statelessness: only
// the "work" class is certified safe to replicate; "sfwork" is its
// stateful twin (same ports, not certified).
type statelessCatalog struct{ testCatalog }

func (c statelessCatalog) ClassPorts(class string) (in, out []string, err error) {
	if class == "sfwork" {
		class = "work"
	}
	return c.testCatalog.ClassPorts(class)
}

func (statelessCatalog) ClassStateless(class string) bool { return class == "work" }

// repProgram builds src -> work(replicate=rep) -> sink.
func repProgram(class, rep string) *graph.Program {
	b := graph.NewBuilder("rep")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Component("w", class, graph.Ports{"in": "a", "out": "b"}, graph.Params{graph.ReplicateParam: rep}),
		b.Component("k", "sink", graph.Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

func analyzeStateless(t *testing.T, prog *graph.Program, opt Options) *Report {
	t.Helper()
	opt.Catalog = statelessCatalog{}
	rep, err := Analyze(prog, opt)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

// TestReplicationClean: a fixed width within the overlap on a stateless
// class produces no findings at all.
func TestReplicationClean(t *testing.T) {
	rep := analyzeStateless(t, repProgram("work", "2"), Options{})
	if fs := findings(rep, PassReplication, Error); len(fs) != 0 {
		t.Fatalf("unexpected errors: %+v", fs)
	}
	if fs := findings(rep, PassReplication, Warning); len(fs) != 0 {
		t.Fatalf("unexpected warnings: %+v", fs)
	}
	if fs := findings(rep, PassReplication, Info); len(fs) != 0 {
		t.Fatalf("unexpected infos: %+v", fs)
	}
}

// TestReplicationStateful: replicating a class the catalog does not
// certify stateless is an error finding — and Analyze itself succeeds,
// so xspclvet renders the diagnosis instead of dying at load.
func TestReplicationStateful(t *testing.T) {
	rep := analyzeStateless(t, repProgram("sfwork", "2"), Options{})
	fs := findings(rep, PassReplication, Error)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "not registered stateless") {
		t.Fatalf("stateful replication findings = %+v, want one stateless error", fs)
	}
}

// TestReplicationWithoutStatelessCatalog: a catalog without the
// StatelessCatalog extension cannot certify any class, so every
// replicate= is rejected.
func TestReplicationWithoutStatelessCatalog(t *testing.T) {
	rep := analyze(t, repProgram("work", "2"), Options{})
	if fs := findings(rep, PassReplication, Error); len(fs) != 1 {
		t.Fatalf("findings = %+v, want one error (catalog cannot certify statelessness)", fs)
	}
}

// TestReplicationWidthBeyondOverlap: a fixed width above the analysis
// overlap warns about the runtime clamp.
func TestReplicationWidthBeyondOverlap(t *testing.T) {
	rep := analyzeStateless(t, repProgram("work", "8"), Options{Overlap: 5})
	fs := findings(rep, PassReplication, Warning)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "clamps") {
		t.Fatalf("findings = %+v, want one clamp warning", fs)
	}
}

// TestReplicationAutoInfo: replicate=auto is advisory-flagged so users
// know the cost model picks the width at load.
func TestReplicationAutoInfo(t *testing.T) {
	rep := analyzeStateless(t, repProgram("work", "auto"), Options{})
	fs := findings(rep, PassReplication, Info)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "cost model") {
		t.Fatalf("findings = %+v, want one cost-model info", fs)
	}
}

// TestReplicationInsideSliceGroup: replication of a data-parallel
// member is legal but flagged (width multiplies each copy).
func TestReplicationInsideSliceGroup(t *testing.T) {
	b := graph.NewBuilder("repslice")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeSlice, 3, b.Seq(
			b.Component("w", "work", graph.Ports{"in": "a", "out": "b"},
				graph.Params{graph.ReplicateParam: "2"}))),
		b.Component("k", "sink", graph.Ports{"in": "b"}, nil),
	)
	rep := analyzeStateless(t, b.MustProgram(), Options{})
	fs := findings(rep, PassReplication, Info)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "data-parallel") {
		t.Fatalf("findings = %+v, want one slice-group info", fs)
	}
}

// TestReplicationPassDisable: -Wno-replication suppresses the pass.
func TestReplicationPassDisable(t *testing.T) {
	rep := analyzeStateless(t, repProgram("sfwork", "2"),
		Options{Disable: map[string]bool{PassReplication: true}})
	if fs := findings(rep, PassReplication, Error); len(fs) != 0 {
		t.Fatalf("disabled pass still reported: %+v", fs)
	}
}
