package apps

import (
	"testing"

	"xspcl/internal/graph"
	"xspcl/internal/xspcl"
)

// jpipSuperplan builds what hinch.NewApp executes for a two-inset JPiP
// at the given slice count: the plan with every option enabled.
func jpipSuperplan(t *testing.T, slices int) (*graph.Program, map[string]bool, *graph.Plan) {
	t.Helper()
	cfg := DefaultJPiP(2)
	cfg.Slices = slices
	prog, err := xspcl.Load(JPiPSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	allOn := map[string]bool{}
	for name := range prog.Options() {
		allOn[name] = true
	}
	plan, err := graph.BuildPlan(prog, allOn)
	if err != nil {
		t.Fatal(err)
	}
	return prog, allOn, plan
}

// TestPlanIsLinearInTasks is the set-up cost guard that needs no clock:
// JPiP is a chain of wide slice groups, so a sequence boundary stored as
// every-exit x every-entry edges makes the plan quadratic in the slice
// count (91 806 edges for the 954 tasks of the paper geometry). With
// joins the stored dependency records and the allocations of a build
// both stay proportional to the task count.
func TestPlanIsLinearInTasks(t *testing.T) {
	for _, slices := range []int{9, 45, 90} {
		_, _, plan := jpipSuperplan(t, slices)
		direct, in, out := plan.DepRecords()
		t.Logf("slices %d: %d tasks, %d direct edges + %d join-in + %d join-out records, %d joins",
			slices, len(plan.Tasks), direct, in, out, len(plan.Joins))
		if records := direct + in + out; records > 3*len(plan.Tasks) {
			t.Errorf("slices %d: %d dependency records for %d tasks, want at most 3 per task",
				slices, records, len(plan.Tasks))
		}
	}

	prog, allOn, plan := jpipSuperplan(t, 45)
	if direct, in, out := plan.DepRecords(); len(plan.Tasks) != 954 || direct+in+out > 2000 {
		t.Errorf("JPiP-2 superplan: %d tasks, %d records; want 954 and at most 2000", len(plan.Tasks), direct+in+out)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := graph.BuildPlan(prog, allOn); err != nil {
			panic(err)
		}
	})
	perTask := allocs / float64(len(plan.Tasks))
	t.Logf("BuildPlan(JPiP-2): %.0f allocations, %.2f per task", allocs, perTask)
	// Measured 6.15 per task (task, name, slice suffix, entry and exit
	// lists, direct edges both ways); all-pairs edges measured 17.8, and
	// more with more slices.
	if perTask > 9 {
		t.Errorf("BuildPlan(JPiP-2) allocates %.2f objects per task, want at most 9", perTask)
	}
}
