package conformance

import (
	"fmt"
	"slices"
	"strings"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// verify judges one observation against the sequential oracle. It is
// the single statement of the determinism contract: sink output depends
// on the program and its input, never on the schedule, the backend, the
// tuner, retried faults or where a cancel lands.
//
// Every clause starts from the same per-record obligation: records are
// duplicate-free and non-negative, and the hash of every record below
// the oracle count N is explained by some configuration the run may
// rest in — the declared defaults for an event-free program, any
// configuration reachable from them (graph.Configurations) otherwise.
// Option states are fixed within an iteration by the manager's entry
// snapshot, but which iteration a trigger's effect lands on is
// schedule-dependent. Records at N or beyond have unspecified payload.
// Then, by how the run ended:
//
//   - Completed: exactly N iterations processed and every one of [0, N)
//     recorded. Records past N appear on the real backend through the
//     documented benign EOS-cancellation race (a job observes
//     cancelled==false just before cancellation and runs redundantly);
//     at most one pipeline window of them is tolerated. The cheapest
//     configuration schedule explaining the records must not need more
//     changes than trigger firings could have caused, counted over one
//     pipeline window past the end (a trigger on a post-EOS cancelled
//     iteration can still retarget earlier in-flight iterations).
//   - Cancelled: weaker promises, since the processed set need not be a
//     contiguous prefix — at most N iterations counted; at least one
//     record per counted iteration and at most one pipeline window of
//     cancel-raced extras (in-flight iterations that recorded at the
//     sink and then retired uncounted); no record past N plus the EOS
//     window.
//   - Faulty (degradable programs): a monotone flip from the initial
//     (primary) configuration to the fallback, with the hole and
//     counter arithmetic of the program's failure policy.
//
// Outside the faulty clause, reconfigurations stay within the
// trigger-firing budget (zero for event-free programs).
func verify(g *Gen, obs *Observation) error {
	n := g.ExpectedIterations()
	cfgs := g.Prog.Configurations()
	if !g.HasEvents {
		cfgs = slices.DeleteFunc(cfgs, func(c graph.Configuration) bool { return !c.Initial })
	}
	if len(cfgs) > 64 {
		return fmt.Errorf("%d reachable configurations exceed the verifier's 64-state mask", len(cfgs))
	}
	initial := uint64(1) << slices.IndexFunc(cfgs, func(c graph.Configuration) bool { return c.Initial })

	// match[i] is the bitmask of configurations explaining iteration
	// i's record; zero when i was not recorded.
	match := make([]uint64, n)
	seen := map[int]bool{}
	extras, last := 0, -1
	for _, r := range obs.Sink {
		switch {
		case r.Iter < 0:
			return fmt.Errorf("sink recorded negative iteration %d", r.Iter)
		case seen[r.Iter]:
			return fmt.Errorf("sink recorded iteration %d twice", r.Iter)
		}
		seen[r.Iter] = true
		last = max(last, r.Iter)
		if r.Iter >= n {
			extras++
			continue
		}
		var tried []string
		for s, c := range cfgs {
			want := g.Expected(r.Iter, c.Enabled)
			if want == r.H {
				match[r.Iter] |= 1 << s
			}
			tried = append(tried, fmt.Sprintf("%s:%016x", c.Key(), want))
		}
		if match[r.Iter] == 0 {
			return fmt.Errorf("iteration %d: sink hash %016x matches no reachable configuration (oracle: %s)", r.Iter, r.H, strings.Join(tried, " "))
		}
	}

	if g.Injector != nil {
		return flipClause(g, obs, match, initial, extras)
	}
	firings := g.MaxFirings(n + g.Depth + 1)
	if obs.Reconfigs > firings {
		return fmt.Errorf("%d reconfigurations observed but at most %d trigger firings possible", obs.Reconfigs, firings)
	}
	if obs.Outcome == hinch.OutcomeCancelled {
		switch window := g.Depth + obs.Workers + 1; {
		case obs.Iterations > n:
			return fmt.Errorf("cancelled run processed %d iterations, oracle caps at %d", obs.Iterations, n)
		case last >= n+g.Depth+1:
			return fmt.Errorf("sink recorded iteration %d, beyond oracle count %d plus the EOS window", last, n)
		case len(obs.Sink) < obs.Iterations:
			return fmt.Errorf("%d sink records for %d counted iterations — a counted iteration skipped its sink", len(obs.Sink), obs.Iterations)
		case len(obs.Sink)-obs.Iterations > window:
			return fmt.Errorf("%d sink records exceed the %d counted iterations by more than one pipeline window (%d)", len(obs.Sink), obs.Iterations, window)
		}
		return nil
	}

	if obs.Iterations != n {
		return fmt.Errorf("processed %d iterations, oracle expects %d", obs.Iterations, n)
	}
	for i, m := range match {
		if m == 0 {
			return fmt.Errorf("sink missing iteration %d of %d", i, n)
		}
	}
	maxExtra := 0
	if obs.Backend == hinch.BackendReal {
		maxExtra = g.Depth + 1
	}
	if extras > maxExtra {
		return fmt.Errorf("sink recorded %d iterations beyond the run's %d (max %d tolerated)", extras, n, maxExtra)
	}
	if best := configChanges(match, initial, len(cfgs)); best > firings {
		return fmt.Errorf("explaining the sink hashes needs >= %d configuration changes but at most %d trigger firings were possible", best, firings)
	}
	return nil
}

// configChanges is the firing-budget DP: the minimal number of
// configuration changes, starting from the initial configuration, of a
// configuration schedule explaining every iteration's record. cost[s]
// is the minimal number of changes to sit in configuration s at the
// current iteration. Every change needs at least one trigger firing;
// jumps between any two reachable states are allowed (several firings
// can land between two consecutive iterations), which only loosens the
// bound — so configuration s is reached either by staying (cost[s]) or
// by one change from the cheapest state. Both directions are sound for
// generated programs: option states snapshot at iteration entry after
// whole-event application, and the generator's forward bindings carry
// no local actions, so the runtime never rests in a state the
// collapsed-forward model misses.
func configChanges(match []uint64, initial uint64, nc int) int {
	const inf = int(^uint(0) >> 1)
	cost := make([]int, nc)
	for s := range cost {
		if initial&(1<<s) == 0 {
			cost[s] = inf
		}
	}
	for _, m := range match { // every m != 0, so the cheapest state stays finite
		best := slices.Min(cost)
		for s := range cost {
			if m&(1<<s) == 0 {
				cost[s] = inf
			} else {
				cost[s] = min(cost[s], best+1)
			}
		}
	}
	return slices.Min(cost)
}

// flipClause is the faulty clause. Manager entries execute in iteration
// order on both backends, so the configuration assignment is monotone:
// primary (initial) for iterations [0, t), fallback from t on, for some
// flip point t. WHERE the flip lands is schedule-dependent on the real
// backend (it depends on which entry first drains the fault event), so
// t is recovered from the observed records and only bounded: the event
// is pushed during iteration From's execution and at most Depth+1
// further entries can have pre-dated it.
//
// Retry/skip modes hole every faulted primary iteration: records [0,
// From) carry primary hashes, [From, t) are missing, [t, N) carry
// fallback hashes, and the counters satisfy Faults = holes·(R+1),
// Retries = holes·R, Degradations = holes. Deadline mode holes
// nothing: the overrun outputs stand, so [0, t) are primary hashes and
// Degradations counts exactly the overrun iterations [From, t). A
// fixed-length run has no EOS race, so no record past N is tolerated.
func flipClause(g *Gen, obs *Observation, match []uint64, initial uint64, extras int) error {
	n := len(match)
	if extras > 0 {
		return fmt.Errorf("sink recorded %d iterations beyond the run's %d", extras, n)
	}
	state := func(i int) string {
		switch {
		case match[i] == 0:
			return "hole"
		case match[i]&initial != 0:
			return "primary"
		}
		return "fallback"
	}
	t := slices.IndexFunc(match, func(m uint64) bool { return m != 0 && m&initial == 0 })
	if t < 0 {
		return fmt.Errorf("run never degraded to the fallback configuration")
	}
	if t <= g.From || t > g.From+g.Depth+2 {
		return fmt.Errorf("flip at iteration %d, want within (%d, %d]", t, g.From, g.From+g.Depth+2)
	}
	holes := 0
	for i := 0; i < n; i++ {
		want := "fallback"
		switch {
		case i < g.From, i < t && g.Mode == FaultyDeadline:
			want = "primary"
		case i < t:
			want = "hole"
			holes++
		}
		if got := state(i); got != want {
			return fmt.Errorf("iteration %d: %s record, want %s (fault onset %d, flip %d)", i, got, want, g.From, t)
		}
	}

	if want := n - holes; obs.Iterations != want {
		return fmt.Errorf("processed %d iterations, want %d (%d holes)", obs.Iterations, want, holes)
	}
	if obs.Reconfigs != 1 {
		return fmt.Errorf("reconfigs = %d, want 1 (residual fault events must be no-ops)", obs.Reconfigs)
	}
	h, r := int64(holes), int64(g.Retries)
	var faults, retries, degr int64
	switch g.Mode {
	case FaultyRetry:
		faults, retries, degr = h*(r+1), h*r, h
	case FaultySkip:
		faults, degr = h, h
	case FaultyDeadline:
		degr = int64(t - g.From)
	}
	if obs.Faults != faults || obs.Retries != retries || obs.Degradations != degr {
		return fmt.Errorf("counters faults=%d retries=%d degradations=%d, want %d/%d/%d (mode %s, %d holes, flip %d)",
			obs.Faults, obs.Retries, obs.Degradations, faults, retries, degr, g.Mode, holes, t)
	}
	return nil
}
