package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"xspcl/internal/hinch"
)

// maxDashStages caps the STAGE table: wide plans (sliced stages expand
// to hundreds of tasks) would scroll any terminal, so the dashboard
// keeps the busiest rows and counts the rest in a footer.
const maxDashStages = 24

// RenderDashboard writes the xspcltop terminal view of a snapshot: a
// run header, one row per stage (replica width, job count, service-time
// quantiles) and the stream-buffer window's occupancy bar, drawn
// against the stream capacity. Values are virtual cycles on the sim
// backend and nanoseconds on the real one (snap.Units). Plain text, no
// ANSI — callers clear the screen.
func RenderDashboard(w io.Writer, s hinch.Snapshot) {
	health := "ok"
	if s.Stalled {
		health = "STALLED"
	} else if s.Degradations > 0 {
		health = "degraded"
	}
	fmt.Fprintf(w, "xspcl %s  cores=%d  health=%s  units=%s\n", s.Backend, s.Cores, health, s.Units)
	fmt.Fprintf(w, "iterations launched=%d retired=%d inflight=%d  jobs=%d\n",
		s.Launched, s.Retired, s.Inflight, s.Jobs)
	if s.IterLat != nil && s.IterLat.Count > 0 {
		fmt.Fprintf(w, "iter latency p50=%d p95=%d p99=%d max=%d\n",
			s.IterLat.Quantile(0.50), s.IterLat.Quantile(0.95), s.IterLat.Quantile(0.99), s.IterLat.Max)
	}
	fmt.Fprintf(w, "faults=%d retries=%d degradations=%d reconfigs=%d  steals=%d parks=%d\n",
		s.Faults, s.Retries, s.Degradations, s.Reconfigs, s.Sched.Steals, s.Sched.Parks)

	if len(s.Stages) > 0 {
		stages, hidden := topStages(s.Stages, maxDashStages)
		fmt.Fprintf(w, "\n%-20s %3s %10s %10s %10s %10s\n", "STAGE", "WID", "JOBS", "P50", "P95", "MAX")
		for _, st := range stages {
			if st.Svc.Count == 0 && st.Jobs == 0 {
				fmt.Fprintf(w, "%-20s %3d %10d %10s %10s %10s\n", clip(st.Name, 20), st.Width, st.Jobs, "-", "-", "-")
				continue
			}
			fmt.Fprintf(w, "%-20s %3d %10d %10d %10d %10d\n",
				clip(st.Name, 20), st.Width, st.Jobs,
				st.Svc.Quantile(0.50), st.Svc.Quantile(0.95), st.Svc.Max)
		}
		if hidden > 0 {
			fmt.Fprintf(w, "… (+%d more stages; /statusz has all of them)\n", hidden)
		}
	}
	fmt.Fprintf(w, "\nWINDOW %d/%d buffer sets held, high-water %d  %s\n",
		s.Occupancy, s.StreamCap, s.HighWater, bar(s.Occupancy, s.StreamCap, 20))
}

// topStages returns up to max stages, in plan order. When the plan is
// wider than the table, the busiest stages (by cumulative service
// time, then job count) are kept and the remainder is counted.
func topStages(all []hinch.StageSnap, max int) ([]hinch.StageSnap, int) {
	if len(all) <= max {
		return all, 0
	}
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := all[order[a]], all[order[b]]
		if sa.Svc.Sum != sb.Svc.Sum {
			return sa.Svc.Sum > sb.Svc.Sum
		}
		return sa.Jobs > sb.Jobs
	})
	keep := order[:max]
	sort.Ints(keep)
	out := make([]hinch.StageSnap, 0, max)
	for _, i := range keep {
		out = append(out, all[i])
	}
	return out, len(all) - max
}

// bar renders occupancy n of cap as a fixed-width meter.
func bar(n, cap, width int) string {
	if cap <= 0 {
		cap = 1
	}
	fill := n * width / cap
	if fill > width {
		fill = width
	}
	if fill < 0 {
		fill = 0
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
