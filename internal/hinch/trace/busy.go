package trace

import (
	"sort"

	"xspcl/internal/hinch"
)

// BusyProfile returns how many workers were inside a job over the
// recorded run: share[k] is the fraction of the run's time during which
// exactly k of the meta.Cores workers (or sim cores) had a job span
// open, so the shares sum to 1. end is the run's end on the trace clock
// (Report.Wall in nanoseconds on real, Report.Cycles on sim); end <= 0
// takes the last span's end. The profile starts at the run's start, or,
// when rings overflowed, at the newest of their oldest surviving
// events, before which some spans are lost. It returns nil when that
// leaves no time to profile. A sim
// trace keeps its spans in the engine's shard, a real one in the
// workers'; both are read.
//
// A share low in the top bucket, with the missing time in the middle
// ones, says the workers take turns: work arrives in bursts one worker
// drains while the others wait.
func BusyProfile(r *Recorder, end int64) []float64 {
	type edge struct {
		ts    int64
		delta int
	}
	var edges []edge
	var start, last int64
	for si := range r.shards {
		evs := r.Events(si)
		if r.shards[si].n > uint64(r.size) && len(evs) > 0 {
			start = max(start, evs[0].TS)
		}
		for _, ev := range evs {
			if ev.Kind != hinch.TraceJobSpan {
				continue
			}
			edges = append(edges, edge{ev.TS, 1}, edge{ev.TS + ev.Arg, -1})
			last = max(last, ev.TS+ev.Arg)
		}
	}
	if end <= 0 {
		end = last
	}
	if end <= start {
		return nil
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].ts < edges[j].ts })
	share := make([]float64, r.meta.Cores+1)
	open, at := 0, start
	for _, e := range edges {
		if ts := min(max(e.ts, start), end); ts > at {
			share[open] += float64(ts - at)
			at = ts
		}
		open += e.delta
	}
	share[open] += float64(end - at)
	for k := range share {
		share[k] /= float64(end - start)
	}
	return share
}
