package conformance

import (
	"context"
	"maps"
	"slices"
	"testing"

	"xspcl/internal/hinch"
)

// TestOracleRejects is verify's negative half: it takes passing sim
// observations — a plain seed, an event-driven seed, a cancelled run
// and one run per faulty mode — and requires verify to reject each one
// after a single doctored change per clause of the contract.
func TestOracleRejects(t *testing.T) {
	sim := perturbation{backend: hinch.BackendSim, workers: 3}
	type base struct {
		name string
		g    *Gen
		obs  *Observation
	}
	var bases []base
	add := func(name string, g *Gen, p perturbation) {
		t.Helper()
		obs, err := run(g, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify(g, obs); err != nil {
			t.Fatalf("%s: undoctored observation rejected: %v", name, err)
		}
		bases = append(bases, base{name, g, obs})
	}
	plain, events := firstGen(t, false), firstGen(t, true)
	add("plain", plain, sim)
	add("events", events, sim)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := sim
	p.ctx, p.faults = ctx, &cancelAt{task: plain.SinkName, iter: plain.ExpectedIterations() / 2, cancel: cancel}
	add("cancelled", plain, p)
	if o := bases[2].obs; o.Outcome != hinch.OutcomeCancelled || len(o.Sink) != o.Iterations {
		t.Fatalf("cancelled base: outcome %s, %d records for %d iterations; want a cancelled run with one record per counted iteration", o.Outcome, len(o.Sink), o.Iterations)
	}
	for seed := uint64(0); seed < 3; seed++ {
		g, err := GenerateFaulty(seed)
		if err != nil {
			t.Fatal(err)
		}
		add("faulty-"+g.Mode.String(), g, sim)
	}

	faulty := func(b base) bool { return b.g.Injector != nil }
	doctors := []struct {
		name    string
		applies func(base) bool
		doctor  func(g *Gen, o *Observation)
	}{
		{"swapped hash", nil, func(g *Gen, o *Observation) {
			o.Sink[0].H, o.Sink[1].H = o.Sink[1].H, o.Sink[0].H
		}},
		{"missing iteration", nil, func(g *Gen, o *Observation) { o.Sink = o.Sink[1:] }},
		{"duplicated iteration", nil, func(g *Gen, o *Observation) { o.Sink = append(o.Sink, o.Sink[0]) }},
		{"negative iteration", nil, func(g *Gen, o *Observation) {
			o.Sink = append([]SinkRec{{Iter: -1, H: o.Sink[0].H}}, o.Sink...)
		}},
		{"record beyond the window", nil, func(g *Gen, o *Observation) {
			o.Sink = append(o.Sink, SinkRec{Iter: g.ExpectedIterations() + g.Depth + 1})
		}},
		{"real-backend extras beyond the window", func(b base) bool { return b.name == "plain" }, func(g *Gen, o *Observation) {
			o.Backend = hinch.BackendReal
			for i := 0; i <= g.Depth+1; i++ { // one past the Depth+1 tolerated
				o.Sink = append(o.Sink, SinkRec{Iter: g.ExpectedIterations() + i})
			}
		}},
		{"reconfigs above the prediction", nil, func(g *Gen, o *Observation) { o.Reconfigs++ }},
		{"reconfiguration one iteration late", func(b base) bool { return b.name == "events" }, func(g *Gen, o *Observation) {
			cfgs, _ := g.Configs(g.ExpectedIterations())
			i := slices.IndexFunc(cfgs[1:], func(c map[string]bool) bool { return !maps.Equal(c, cfgs[0]) }) + 1
			o.Sink[i].H = g.Expected(i, cfgs[i-1])
		}},
		{"fallback record before the flip", faulty, func(g *Gen, o *Observation) {
			i := g.From - 1
			o.Sink[i].H = g.Expected(i, map[string]bool{"backup": true})
		}},
		{"faults off by one", faulty, func(g *Gen, o *Observation) { o.Faults++ }},
	}
	for _, b := range bases {
		for _, d := range doctors {
			if d.applies != nil && !d.applies(b) {
				continue
			}
			o := *b.obs
			o.Sink = slices.Clone(b.obs.Sink)
			d.doctor(b.g, &o)
			if err := verify(b.g, &o); err == nil {
				t.Errorf("%s: verify accepted a %s", b.name, d.name)
			} else {
				t.Logf("%s, %s: %v", b.name, d.name, err)
			}
		}
	}
}

// firstGen returns the first generated program with at least ten
// iterations that is event-driven (events) or event-free (!events).
func firstGen(t *testing.T, events bool) *Gen {
	t.Helper()
	for seed := uint64(0); seed < 64; seed++ {
		g, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.HasEvents == events && g.ExpectedIterations() >= 10 {
			return g
		}
	}
	t.Fatalf("no generated program with events=%v in range", events)
	return nil
}
