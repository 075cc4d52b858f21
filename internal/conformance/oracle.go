package conformance

import (
	"fmt"

	"xspcl/internal/hinch"
)

// verify judges one observation against the sequential oracle. It is
// the single statement of the determinism contract: sink output depends
// on the program and its input, never on the schedule, the backend, the
// replica widths, retried faults or where a cancel lands.
//
// Every clause starts from the same per-record obligation: records are
// duplicate-free and non-negative, and the hash of every record below
// the oracle count N is the one prediction for its iteration. Events
// land at a fixed iteration distance (Gen.Configs), so the prediction
// is exact for reconfiguring programs too. Records at N or beyond have
// unspecified payload. Then, by how the run ended:
//
//   - Completed: exactly N iterations processed, every one of [0, N)
//     recorded, and exactly the reconfigurations the replay predicts.
//     Records past N appear on the real backend through the documented
//     benign EOS-cancellation race (a job observes cancelled==false
//     just before cancellation and runs redundantly); at most one
//     pipeline window of them is tolerated.
//   - Cancelled: weaker promises, since the processed set need not be a
//     contiguous prefix — at most N iterations counted and at most the
//     predicted reconfigurations; at least one record per counted
//     iteration and at most one pipeline window of cancel-raced extras
//     (in-flight iterations that recorded at the sink and then retired
//     uncounted); no record past N plus the EOS window.
//   - Faulty (degradable programs): the flip from the initial (primary)
//     configuration to the fallback lands at a fixed iteration, with
//     the hole and counter arithmetic of the program's failure policy.
func verify(g *Gen, obs *Observation) error {
	n := g.ExpectedIterations()
	got := make(map[int]uint64, len(obs.Sink))
	extras, last := 0, -1
	for _, r := range obs.Sink {
		if r.Iter < 0 {
			return fmt.Errorf("sink recorded negative iteration %d", r.Iter)
		}
		if _, dup := got[r.Iter]; dup {
			return fmt.Errorf("sink recorded iteration %d twice", r.Iter)
		}
		got[r.Iter] = r.H
		last = max(last, r.Iter)
		if r.Iter >= n {
			extras++
		}
	}
	if g.Injector != nil {
		return flipClause(g, obs, got, extras)
	}
	cfgs, reconfigs := g.Configs(n)
	for i, cfg := range cfgs {
		if h, ok := got[i]; ok {
			if want := g.Expected(i, cfg); h != want {
				return fmt.Errorf("iteration %d: sink hash %016x, oracle %016x under %v", i, h, want, cfg)
			}
		}
	}
	if obs.Outcome == hinch.OutcomeCancelled {
		switch window := g.Depth + obs.Workers + 1; {
		case obs.Iterations > n:
			return fmt.Errorf("cancelled run processed %d iterations, oracle caps at %d", obs.Iterations, n)
		case obs.Reconfigs > reconfigs:
			return fmt.Errorf("cancelled run reconfigured %d times, the replay predicts %d for the whole run", obs.Reconfigs, reconfigs)
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
	for i := range n {
		if _, ok := got[i]; !ok {
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
	if obs.Reconfigs != reconfigs {
		return fmt.Errorf("%d reconfigurations observed, the replay predicts %d", obs.Reconfigs, reconfigs)
	}
	return nil
}

// flipClause is the faulty clause. Every faulted attempt of p1 pushes a
// fault event stamped with its iteration, so the first one — from
// iteration From — is delivered by the manager entry of From + Depth:
// that iteration is the last to run the primary configuration and the
// flip point is t = From + Depth + 1. The exception is deadline mode on
// the real backend, where an overrun is measured in wall time and an
// honest job may overrun too; there t is recovered from the records
// and only bounded to (From, From+Depth+1].
//
// Retry/skip modes hole every faulted primary iteration: records [0,
// From) carry primary hashes, [From, t) are missing, [t, N) carry
// fallback hashes, and the counters satisfy Faults = holes·(R+1),
// Retries = holes·R, Degradations = holes. Deadline mode holes
// nothing: the overrun outputs stand, so [0, t) are primary hashes and
// Degradations counts exactly the overrun iterations [From, t). A
// fixed-length run has no EOS race, so no record past N is tolerated.
func flipClause(g *Gen, obs *Observation, got map[int]uint64, extras int) error {
	n := g.ExpectedIterations()
	if extras > 0 {
		return fmt.Errorf("sink recorded %d iterations beyond the run's %d", extras, n)
	}
	primary, fallback := g.Prog.Options(), map[string]bool{"backup": true}
	state := func(i int) string {
		h, ok := got[i]
		switch {
		case !ok:
			return "hole"
		case h == g.Expected(i, primary):
			return "primary"
		case h == g.Expected(i, fallback):
			return "fallback"
		}
		return fmt.Sprintf("foreign hash %016x", h)
	}
	t := g.From + g.Depth + 1
	if g.Mode == FaultyDeadline && obs.Backend == hinch.BackendReal {
		t = -1
		for i := n - 1; i >= 0 && state(i) == "fallback"; i-- {
			t = i
		}
		if t <= g.From || t > g.From+g.Depth+1 {
			return fmt.Errorf("flip at iteration %d, want within (%d, %d]", t, g.From, g.From+g.Depth+1)
		}
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
