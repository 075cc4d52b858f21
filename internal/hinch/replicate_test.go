package hinch

import (
	"fmt"
	"testing"
	"time"

	"xspcl/internal/graph"
)

// replicatedChainProg is chainProg with its middle stage, dbl, carrying
// the given replicate spec.
func replicatedChainProg(rep string) *graph.Program {
	prog := chainProg()
	for _, n := range prog.Components() {
		if n.Name == "dbl" {
			n.Params = graph.Params{graph.ReplicateParam: rep}
		}
	}
	return prog
}

// TestReplicateWidths: on both backends and every worker count a
// replicated stage keeps its output in iteration order, and the width
// (stage 1, dbl) and the capacity are the load-time ones:
// min(N, PipelineDepth) for a fixed width, capacity
// min(StreamCapacity + Σ(width − 1), PipelineDepth). The default cost
// model cannot price this package's test classes, double among them,
// so an auto mark on dbl resolves to width 1 and leaves the capacity
// at the default.
func TestReplicateWidths(t *testing.T) {
	for _, tc := range []struct {
		rep          string
		width, capac int
	}{{"2", 2, 4}, {"4", 4, 6}, {"12", 8, 8}, {"auto", 1, 3}} {
		for _, cfg := range []Config{{Backend: BackendSim, Cores: 4},
			{Backend: BackendReal, Cores: 1}, {Backend: BackendReal, Cores: 2}, {Backend: BackendReal, Cores: 4}} {
			t.Run(fmt.Sprintf("replicate=%s/backend%d/%d", tc.rep, cfg.Backend, cfg.Cores), func(t *testing.T) {
				cfg.PipelineDepth = 8
				app, rep := runApp(t, replicatedChainProg(tc.rep), cfg, 300)
				vals := app.Component("snk").(*intSink).values()
				if w := rep.Stages[1].Width; len(vals) != 300 || w != tc.width || rep.StreamCap != tc.capac {
					t.Fatalf("%d values, width %d, capacity %d; want 300, %d and %d", len(vals), w, rep.StreamCap, tc.width, tc.capac)
				}
				for i, v := range vals {
					if v != 2*i {
						t.Fatalf("value %d = %d, want %d (replication broke ordering)", i, v, 2*i)
					}
				}
			})
		}
	}
}

// TestConfigDefaults pins every value withDefaults fills, per backend:
// the watchdog epoch follows the one duration rule (virtual cycles on
// sim, wall time on real).
func TestConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		backend  Backend
		watchdog time.Duration
	}{
		{BackendSim, 2_000_000},
		{BackendReal, 250 * time.Millisecond},
	} {
		want := Config{Backend: tc.backend, Cores: 1, PipelineDepth: 5, StreamCapacity: 3,
			WatchdogEpoch: tc.watchdog}
		if got := (Config{Backend: tc.backend}).withDefaults(); got != want {
			t.Errorf("backend %d defaults:\n got %+v\nwant %+v", tc.backend, got, want)
		}
		if got := (Config{Backend: tc.backend, PipelineDepth: 2}).withDefaults().StreamCapacity; got != 2 {
			t.Errorf("backend %d: StreamCapacity %d, want clamped to PipelineDepth 2", tc.backend, got)
		}
	}
}
