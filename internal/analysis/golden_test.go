package analysis_test

// Golden analyzer reports. The analyzer's own tests assert properties
// (no errors on the paper apps, a named finding on a crafted program);
// they do not notice a verdict that moves because the dependency
// relation it reads lost edges — a finding that appears or disappears.
// These goldens pin the rendered findings (what xspclvet prints) byte
// for byte for every built-in variant and every example specification,
// so a change to graph.Plan's representation must leave them
// untouched. Regenerate with -update only when a verdict is meant to
// change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xspcl/internal/analysis"
	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/xspcl"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden analyzer reports")

// renderReport is the text xspclvet prints for one input; a
// load or validation failure is part of the verdict and is rendered
// in its place.
func renderReport(name string, prog *graph.Program, err error) string {
	if err != nil {
		return name + ": " + err.Error() + "\n"
	}
	rep, err := analysis.Analyze(prog, analysis.Options{Catalog: components.DefaultRegistry()})
	if err != nil {
		return name + ": " + err.Error() + "\n"
	}
	rep.Program = name
	var b bytes.Buffer
	analysis.Render(&b, rep)
	return b.String()
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("analyzer report differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenReportsApps(t *testing.T) {
	for _, v := range apps.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			prog, err := v.Program()
			checkGolden(t, "app_"+v.Name+".golden", renderReport(v.Name, prog, err))
		})
	}
}

func TestGoldenReportsSpecs(t *testing.T) {
	specs, err := filepath.Glob("../../examples/specs/*.xml")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specifications found (%v)", err)
	}
	for _, path := range specs {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := xspcl.Load(string(data))
			checkGolden(t, "spec_"+strings.TrimSuffix(name, ".xml")+".golden", renderReport(name, prog, err))
		})
	}
}
