package hinch

import (
	"fmt"
	"sync/atomic"
	"testing"

	"xspcl/internal/graph"
)

// Tests for the iteration states launch recycles: their dependency
// counters and flags are plain slices behind the sync/atomic functions,
// reset in bulk by launch before it publishes the state.

// resetMismatch describes how it differs from a state launch has just
// recycled, or returns "" when it holds exactly the launch values:
// every task's dependency count e.waits, every join's count its
// feeders, every cross handshake at 0, not cancelled, no buffer set
// (bufSet -1), every retiring task left.
func resetMismatch(e *engine, it *iterState) string {
	for id, w := range e.waits {
		if n := atomic.LoadInt32(&it.remaining[id]); n != w {
			return fmt.Sprintf("task %d waits on %d dependencies, want %d", id, n, w)
		}
		if h := atomic.LoadUint32(&it.crossOut[id]); h != 0 {
			return fmt.Sprintf("task %d starts with cross handshake %d", id, h)
		}
	}
	for jn, f := range e.feeders {
		if n := atomic.LoadInt32(&it.joinLeft[jn]); n != f {
			return fmt.Sprintf("join %d waits on %d feeders, want %d", jn, n, f)
		}
	}
	if it.cancelled.Load() || it.bufSet != -1 {
		return "state starts cancelled or holding a buffer set"
	}
	if n := it.left.Load(); n != e.nRetires {
		return fmt.Sprintf("%d tasks left, want %d", n, e.nRetires)
	}
	return ""
}

// checkStatesSettled checks that every iteration the run launched
// settled completely, and returns the states that were ever launched.
// No iteration may be left live, every state must be free (iter -1),
// and in each one every task's dependency count and every join's feeder
// count reads zero, and so does its count of retiring tasks left. Its
// cross handshakes are either all crossDone (it retired at least one
// iteration) or all 0 (launch never took it: a run of fewer than bufCap
// iterations, or one whose manager halts launches, leaves states idle).
// (A second release cannot hide here: it would drive a count negative,
// which release panics on.)
func checkStatesSettled(t *testing.T, app *App) map[*iterState]bool {
	t.Helper()
	e := app.eng
	if e.retireNext != e.nextLaunch || len(e.states) != e.bufCap {
		t.Fatalf("iterations [%d, %d) still live, %d states for capacity %d", e.retireNext, e.nextLaunch, len(e.states), e.bufCap)
	}
	retired := map[*iterState]bool{}
	for i, it := range e.states {
		if n := it.iter.Load(); n != -1 {
			t.Fatalf("state %d still holds iteration %d", i, n)
		}
		for id := range it.remaining {
			if n := atomic.LoadInt32(&it.remaining[id]); n != 0 {
				t.Fatalf("task %d of state %d ended with %d dependencies outstanding", id, i, n)
			}
		}
		for jn := range it.joinLeft {
			if n := atomic.LoadInt32(&it.joinLeft[jn]); n != 0 {
				t.Fatalf("join %d of state %d ended with %d feeders outstanding", jn, i, n)
			}
		}
		if n := it.left.Load(); n != 0 {
			t.Fatalf("state %d ended with %d retiring tasks left", i, n)
		}
		done, zero := 0, 0
		for id := range it.crossOut {
			switch atomic.LoadUint32(&it.crossOut[id]) {
			case crossDone:
				done++
			case 0:
				zero++
			}
		}
		switch {
		case zero == len(it.crossOut):
		case done == len(it.crossOut):
			retired[it] = true
		default:
			t.Fatalf("state %d ended with %d of its %d cross handshakes done, %d at 0", i, done, len(it.crossOut), zero)
		}
	}
	return retired
}

// launchCheck is a Tracer that records, at each iteration launch k,
// the state launch just published, and checks that iterAt finds it in
// states[k%bufCap] and that it holds exactly the launch values. Launch
// is that state's only writer at the probe, at any worker count: a
// completion W iterations back releases into it only once launch's
// handshake on the older state, after the probe, told it to. At each
// retirement it checks that iterAt no longer finds the iteration.
type launchCheck struct {
	e        *engine
	launches map[*iterState]int
	bad      string
}

func (c *launchCheck) Begin(TraceMeta) {}
func (c *launchCheck) End()            {}

// Emit sees launch and retire events under the engine lock (or on the
// sim goroutine), so the map needs no lock of its own.
func (c *launchCheck) Emit(_ int, ev TraceEvent) {
	k := int(ev.Iter)
	var msg string
	switch ev.Kind {
	case TraceIterLaunch:
		it := c.e.states[k%c.e.bufCap]
		c.launches[it]++
		if c.e.iterAt(k) != it {
			msg = fmt.Sprintf("at launch: not found in states[%d]", k%c.e.bufCap)
		} else if m := resetMismatch(c.e, it); m != "" {
			msg = "at launch: " + m
		}
	case TraceIterRetire:
		if c.e.iterAt(k) != nil {
			msg = "after retiring: iterAt still finds it"
		}
	}
	if c.bad == "" && msg != "" {
		c.bad = fmt.Sprintf("iteration %d %s", k, msg)
	}
}

// TestIterationStatesSettle runs the scheduler-stress shape (a source
// fanned out to 16 slices and joined at a sink) and a join between two
// 16-way groups, for twenty times as many iterations as the table has
// states, on sim and on real at 1, 2 and 4 workers. Launch publishes
// iteration k in states[k%bufCap] and recycles every state: it must
// settle when its iteration retires, after which iterAt no longer finds
// it, hold exactly the launch values when launch recycles it, and hold
// them again when reset after the run.
func TestIterationStatesSettle(t *testing.T) {
	progs := []struct {
		name  string
		prog  func() *graph.Program
		reg   func() *Registry
		joins int
	}{
		{"sched", func() *graph.Program { return wideStressProg(16) }, testRegistry, 0},
		{"two-groups", func() *graph.Program { return twoGroupsProg(0, nil, nil) }, joinRegistry, 1},
	}
	cfgs := []Config{{Backend: BackendSim, Cores: 4}}
	for _, cores := range []int{1, 2, 4} {
		cfgs = append(cfgs, Config{Backend: BackendReal, Cores: cores})
	}
	for _, pc := range progs {
		for _, cfg := range cfgs {
			name := fmt.Sprintf("%s/backend%d/cores%d", pc.name, cfg.Backend, cfg.Cores)
			tr := &launchCheck{launches: map[*iterState]int{}}
			cfg.Tracer = tr
			app, err := NewApp(pc.prog(), pc.reg(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(app.plan.Joins) != pc.joins {
				t.Fatalf("%s: plan has %d joins, want %d", name, len(app.plan.Joins), pc.joins)
			}
			e := app.eng
			tr.e = e
			iters := 20 * e.bufCap
			rep, err := app.Run(iters)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Iterations != iters {
				t.Fatalf("%s: ran %d iterations, want %d", name, rep.Iterations, iters)
			}
			if tr.bad != "" {
				t.Fatalf("%s: %s", name, tr.bad)
			}
			retired := checkStatesSettled(t, app)
			launches := 0
			for it, n := range tr.launches {
				launches += n
				if !retired[it] {
					t.Fatalf("%s: a state launched %d times did not settle", name, n)
				}
			}
			if launches != iters || len(retired) != len(tr.launches) {
				t.Fatalf("%s: %d launches over %d states, %d states retired", name, launches, len(tr.launches), len(retired))
			}
			if len(tr.launches) != e.bufCap {
				t.Fatalf("%s: launch took %d states, want all %d", name, len(tr.launches), e.bufCap)
			}
			if launches < 2*len(tr.launches) {
				t.Fatalf("%s: %d launches over %d states recycle too few", name, launches, len(tr.launches))
			}
			for _, it := range e.states {
				e.resetIter(it)
				if msg := resetMismatch(e, it); msg != "" {
					t.Fatalf("%s: reset state: %s", name, msg)
				}
			}
		}
	}
}
