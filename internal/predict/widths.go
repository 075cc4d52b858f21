package predict

import "xspcl/internal/graph"

// AutoWidths resolves the replica width of every task of plan, indexed
// by task ID, for cores cores and depth iterations in flight: the
// prediction's feedback to the runtime (the paper's Figure 1), read
// once at load. A task without replicate= runs at width 1, and
// replicate="N" at min(N, depth). A replicate="auto" component takes
// the smallest width that stops it bounding the steady state: with the
// plan priced by the default model, T(n) = max(W/n, C/d, maxTask)
// cannot fall below floor = max(W/cores, C/depth), so a task costing c
// needs ⌈c / floor⌉ replicas, capped at min(depth, cores). When the
// model cannot price some task of the plan, every auto width is 1. The
// plan is priced only when it has an auto task.
func AutoWidths(prog *graph.Program, plan *graph.Plan, cores, depth int) []int {
	widths := make([]int, len(plan.Tasks))
	var auto []int
	for _, t := range plan.Tasks {
		widths[t.ID] = 1
		if t.Role != graph.RoleComponent {
			continue
		}
		// A bad attribute, rejected by Program.Validate, parses as width 1.
		if rep, _ := graph.TaskReplicate(t); rep.Auto {
			auto = append(auto, t.ID)
		} else {
			widths[t.ID] = min(rep.Width, depth)
		}
	}
	if len(auto) == 0 {
		return widths
	}
	model := NewDefaultModel()
	costs := make([]int64, len(plan.Tasks))
	for _, t := range plan.Tasks {
		c, err := model.TaskCycles(prog, t)
		if err != nil {
			return widths
		}
		costs[t.ID] = c
	}
	cost := func(t *graph.Task) int64 { return costs[t.ID] }
	floor := max(plan.TotalWork(cost)/int64(cores), plan.CriticalPath(cost)/int64(depth))
	if floor <= 0 {
		return widths
	}
	for _, id := range auto {
		widths[id] = int(max(1, min((costs[id]+floor-1)/floor, int64(depth), int64(cores))))
	}
	return widths
}

// Capacity is the stream capacity that widths call for: how many
// iterations may be in flight, each holding one buffer set. A task w
// wide keeps w iterations of itself running, so it needs w − 1 sets
// beyond the configured capacity; no more than depth sets exist.
func Capacity(widths []int, capacity, depth int) int {
	for _, w := range widths {
		capacity += w - 1
	}
	return min(capacity, depth)
}
