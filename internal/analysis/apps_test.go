package analysis_test

import (
	"testing"

	"xspcl/internal/analysis"
	"xspcl/internal/apps"
	"xspcl/internal/components"
)

// TestAppsClean is the analyzer's acceptance gate on the paper's
// applications: every built-in variant (PiP, JPiP, Blur, static and
// reconfigurable) must come out of every pass with zero errors and zero
// warnings.
func TestAppsClean(t *testing.T) {
	for _, v := range apps.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			prog, err := v.Program()
			if err != nil {
				t.Fatalf("Program: %v", err)
			}
			rep, err := analysis.Analyze(prog, analysis.Options{Catalog: components.DefaultRegistry()})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			for _, f := range rep.Findings {
				if f.Severity >= analysis.Warning {
					t.Errorf("%s: %s [%s] %s", v.Name, f.Severity, f.Pass, f.Message)
				}
			}
			t.Logf("%s: %d configurations, %d infos", v.Name, rep.Configs, rep.Count(analysis.Info))
		})
	}
}

// BenchmarkAnalyze times the analyzer on every app variant (run it with
// go test -bench Analyze ./internal/analysis; bench/ reports it per
// workload as analysis.analyze_us).
func BenchmarkAnalyze(b *testing.B) {
	for _, v := range apps.Variants() {
		v := v
		prog, err := v.Program()
		if err != nil {
			b.Fatalf("%s: %v", v.Name, err)
		}
		b.Run(v.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := analysis.Analyze(prog, analysis.Options{Catalog: components.DefaultRegistry()})
				if err != nil {
					b.Fatal(err)
				}
				if rep.HasErrors() {
					b.Fatal("unexpected errors")
				}
			}
		})
	}
}
