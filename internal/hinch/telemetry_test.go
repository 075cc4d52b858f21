package hinch

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"xspcl/internal/graph"
)

func TestHistQuantile(t *testing.T) {
	var h hist
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1 << 20} {
		h.record(v)
	}
	s := h.snap()
	if s.Count != 7 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max %d", s.Max)
	}
	if s.Sum != 0+1+2+3+100+1000+1<<20 {
		t.Fatalf("sum %d", s.Sum)
	}
	// Bucket 0 holds the zero, bucket 1 the value 1, bucket 2 values
	// 2..3, bucket 7 the 100, bucket 10 the 1000, bucket 21 the 1<<20.
	if got := s.Quantile(0.01); got != 0 {
		t.Fatalf("p1 = %d, want 0", got)
	}
	if got := s.Quantile(0.5); got != BucketBound(2) {
		t.Fatalf("p50 = %d, want %d", got, BucketBound(2))
	}
	// The top quantile is clamped to the observed max, not the bucket
	// bound.
	if got := s.Quantile(1.0); got != 1<<20 {
		t.Fatalf("p100 = %d, want %d", got, 1<<20)
	}
	if s.Mean() <= 0 {
		t.Fatalf("mean %v", s.Mean())
	}
	if BucketBound(0) != 0 || BucketBound(3) != 7 {
		t.Fatal("bucket bounds moved")
	}
}

func TestTelemetrySimDeterministic(t *testing.T) {
	run := func() ([]byte, *Report) {
		_, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 3, Telemetry: true}, 25)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b, rep
	}
	s1, r1 := run()
	s2, _ := run()
	if string(s1) != string(s2) {
		t.Fatalf("sim reports differ:\n%s\n%s", s1, s2)
	}
	if len(r1.Stages) == 0 || r1.IterLat == nil {
		t.Fatalf("report missing telemetry: %+v", r1)
	}
	// Sim records every job, so the per-stage counts are exact: the
	// chain has 3 components over 25 iterations.
	var jobs int64
	for _, st := range r1.Stages {
		jobs += st.Jobs
	}
	if jobs != 75 {
		t.Fatalf("stage jobs sum %d, want 75", jobs)
	}
	if r1.IterLat.Count != 25 || r1.IterLat.Max <= 0 {
		t.Fatalf("iteration latency %+v", r1.IterLat)
	}
	// One window occupancy sample per iteration, at its acquisition.
	if r1.Occ == nil || r1.Occ.Count != 25 || r1.Occ.Max != int64(r1.HighWater) || r1.Occupancy != 0 {
		t.Fatalf("window occupancy %+v, high-water %d, held %d", r1.Occ, r1.HighWater, r1.Occupancy)
	}
}

func TestTelemetryOffLeavesReportBare(t *testing.T) {
	_, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 2}, 10)
	for _, st := range rep.Stages {
		if st.Svc.Count != 0 {
			t.Fatalf("stage %s has service-time samples without Config.Telemetry: %+v", st.Name, st.Svc)
		}
	}
	if rep.IterLat != nil || rep.Occ != nil || rep.Stalls != 0 {
		t.Fatalf("telemetry fields set without Config.Telemetry: %+v", rep)
	}
}

func TestSnapshotBeforeRun(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 2, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	s := app.Snapshot()
	if !s.Telemetry || s.Backend != "sim" || s.Units != "cycles" {
		t.Fatalf("snapshot header %+v", s)
	}
	if len(s.Stages) != 3 || s.StreamCap != 3 || s.Occupancy != 0 || s.HighWater != 0 {
		t.Fatalf("structure: %d stages, window %d/%d sets held, high-water %d",
			len(s.Stages), s.Occupancy, s.StreamCap, s.HighWater)
	}
	if s.Launched != 0 || s.Jobs != 0 {
		t.Fatalf("pre-run counters %+v", s)
	}
}

// liveProg is reconfigProg with a failure policy: the emitter toggles
// option "extra" every 7 iterations, and the manager's base adder
// retries twice, so seeded faults on it produce faults, retries and —
// when all three attempts of an iteration fail — degradations.
func liveProg() *graph.Program {
	b := graph.NewBuilder("live")
	b.Stream("a").Stream("b").Stream("c")
	b.Queue("ui")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{"queue": "ui", "event": "flip", "every": "7"}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("flip", graph.ActionToggle, "extra")},
			b.Component("base", "adder", graph.Ports{"in": "a", "out": "b"},
				graph.Params{"add": "0", graph.OnErrorParam: "retry:2,base=1us"}),
			b.Option("extra", false,
				b.Component("x", "adder", graph.Ports{"in": "b", "out": "b"}, graph.Params{"add": "1000"}),
			),
		),
		b.Component("dbl", "double", graph.Ports{"in": "b", "out": "c"}, nil),
		b.Component("snk", "intsink", graph.Ports{"in": "c"}, nil),
	)
	return b.MustProgram()
}

// holdUntilSeen wraps a fault injector and parks the source's job of
// one iteration until the test's poller has observed live counters, so
// every case is guaranteed a mid-run observation.
type holdUntilSeen struct {
	FaultInjector
	at   int
	seen <-chan struct{}
}

func (h *holdUntilSeen) Inject(task string, iter, attempt int) Fault {
	if task == "src" && iter == h.at {
		select {
		case <-h.seen:
		case <-time.After(10 * time.Second):
		}
	}
	return h.FaultInjector.Inject(task, iter, attempt)
}

// snapCounters lists a snapshot's counters by name: Iterations and every
// int64 field of Snapshot and its Sched except the Inflight gauge.
func snapCounters(s Snapshot) map[string]int64 {
	out := map[string]int64{"Iterations": int64(s.Iterations)}
	for _, v := range []reflect.Value{reflect.ValueOf(s), reflect.ValueOf(s.Sched)} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Type.Kind() == reflect.Int64 && f.Name != "Inflight" {
				out[f.Name] = v.Field(i).Int()
			}
		}
	}
	return out
}

// TestSnapshotLiveRealRun: on either backend, with or without
// Config.Telemetry, a snapshot taken mid-run shows live counters that
// only ever grow, and after Run the Snapshot is the Report's — counters,
// stages, the buffer window, histograms and the tune view alike.
func TestSnapshotLiveRealRun(t *testing.T) {
	const iters = 300
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sim", Config{Backend: BackendSim, Cores: 4}},
		{"sim-telemetry", Config{Backend: BackendSim, Cores: 4, Telemetry: true}},
		{"real", Config{Backend: BackendReal, Cores: 4}},
		{"real-telemetry", Config{Backend: BackendReal, Cores: 4, Telemetry: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := make(chan struct{})
			cfg := tc.cfg
			cfg.Faults = &holdUntilSeen{
				FaultInjector: &SeededFaults{Seed: 7, Rate: 2, Task: "base", From: -1},
				at:            iters / 2, seen: seen,
			}
			app, err := NewApp(liveProg(), testRegistry(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			polled := make(chan struct{})
			go func() {
				defer close(polled)
				last := snapCounters(Snapshot{})
				live := false
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := app.Snapshot()
					if int64(s.Iterations) > s.Retired || s.Retired > s.Launched || s.Inflight != s.Launched-s.Retired {
						t.Errorf("iteration counters out of order: %+v", s)
						return
					}
					if s.Occupancy > s.StreamCap || s.HighWater > s.StreamCap {
						t.Errorf("window %d/%d sets held, high-water %d", s.Occupancy, s.StreamCap, s.HighWater)
						return
					}
					cur := snapCounters(s)
					for name, v := range cur {
						if v < last[name] {
							t.Errorf("%s went backwards: %d after %d", name, v, last[name])
							return
						}
					}
					last = cur
					if !live && s.Iterations > 0 && s.Jobs > 0 {
						live = true
						close(seen)
					}
				}
			}()
			rep, err := app.Run(iters)
			close(stop)
			<-polled
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-seen:
			default:
				t.Fatal("no snapshot taken mid-run showed live counters")
			}
			final := app.Snapshot()
			if !reflect.DeepEqual(rep.Snapshot, final) {
				t.Errorf("final snapshot differs from the report's:\n%+v\n%+v", final, rep.Snapshot)
			}
			var stageJobs int64
			for _, st := range final.Stages {
				stageJobs += st.Jobs
			}
			if final.Launched != iters || final.Inflight != 0 || stageJobs != final.Jobs {
				t.Errorf("final snapshot: %d launched, %d in flight, stage jobs sum to %d of %d",
					final.Launched, final.Inflight, stageJobs, final.Jobs)
			}
			if rep.Reconfigs == 0 || rep.Faults == 0 || rep.Retries == 0 || rep.Degradations == 0 || rep.Events == 0 {
				t.Errorf("program did not exercise every counter: %v", rep)
			}
			if final.Telemetry != cfg.Telemetry || (rep.IterLat != nil) != cfg.Telemetry {
				t.Errorf("telemetry=%v but snapshot says %v and report has iteration latency %v",
					cfg.Telemetry, final.Telemetry, rep.IterLat)
			}
		})
	}
}

// delayOnce injects one huge FaultDelay at a single (task, iteration),
// stalling the in-order retirement long enough for the watchdog to
// notice.
type delayOnce struct {
	task  string
	iter  int
	delay time.Duration
}

func (d *delayOnce) Inject(task string, iter, attempt int) Fault {
	if task == d.task && iter == d.iter && attempt == 0 {
		return Fault{Kind: FaultDelay, Delay: d.delay}
	}
	return Fault{}
}

func TestWatchdogStallSim(t *testing.T) {
	// A 10ms delay is 10M virtual cycles: the completion jump replays
	// ~100 missed watchdog epochs back-to-back, so the stall fires
	// deterministically after watchdogEpochs of them.
	run := func() (*Report, *testTracer) {
		tr := &testTracer{}
		app, err := NewApp(chainProg(), testRegistry(), Config{
			Backend: BackendSim, Cores: 2, Telemetry: true, Tracer: tr,
			WatchdogEpoch: 100_000,
			Faults:        &delayOnce{task: "dbl", iter: 5, delay: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr
	}
	rep, tr := run()
	if rep.Stalls != 1 {
		t.Fatalf("stalls = %d, want exactly 1", rep.Stalls)
	}
	stallEvents := 0
	for _, ev := range tr.events(0) {
		if ev.Kind == TraceStall {
			stallEvents++
			if ev.Arg < watchdogEpochs {
				t.Fatalf("stall after %d epochs, want >= %d", ev.Arg, watchdogEpochs)
			}
		}
	}
	if stallEvents != 1 {
		t.Fatalf("%d TraceStall events, want 1", stallEvents)
	}
	// The stall count is part of the deterministic sim schedule.
	rep2, _ := run()
	if rep2.Stalls != rep.Stalls || rep2.Cycles != rep.Cycles {
		t.Fatalf("stall detection not deterministic: %d/%d cycles %d/%d",
			rep.Stalls, rep2.Stalls, rep.Cycles, rep2.Cycles)
	}
}

func TestWatchdogNoFalsePositive(t *testing.T) {
	_, rep := runApp(t, chainProg(), Config{
		Backend: BackendSim, Cores: 2, Telemetry: true,
		WatchdogEpoch: 50_000,
	}, 40)
	if rep.Stalls != 0 {
		t.Fatalf("healthy run reported %d stalls", rep.Stalls)
	}
}

func TestWatchdogStallReal(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{
		Backend: BackendReal, Cores: 2, Telemetry: true,
		WatchdogEpoch: 2 * time.Millisecond,
		Faults:        &delayOnce{task: "dbl", iter: 3, delay: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Report, 1)
	go func() {
		rep, err := app.Run(8)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// The delayed job blocks in-order retirement for 150ms while the
	// watchdog ticks every 2ms: /healthz-visible stall state must
	// appear well before the delay elapses.
	sawStalled := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if app.Snapshot().Stalled {
			sawStalled = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	rep := <-done
	if !sawStalled {
		t.Fatal("never observed Stalled mid-run")
	}
	if rep == nil || rep.Stalls < 1 {
		t.Fatalf("report stalls %+v", rep)
	}
}

// testTracer is a minimal recording Tracer for shard-0 assertions.
type testTracer struct {
	mu  sync.Mutex
	evs map[int][]TraceEvent
}

func (tr *testTracer) Begin(TraceMeta) {}
func (tr *testTracer) End()            {}
func (tr *testTracer) Emit(shard int, ev TraceEvent) {
	tr.mu.Lock()
	if tr.evs == nil {
		tr.evs = map[int][]TraceEvent{}
	}
	tr.evs[shard] = append(tr.evs[shard], ev)
	tr.mu.Unlock()
}

func (tr *testTracer) events(shard int) []TraceEvent {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]TraceEvent(nil), tr.evs[shard]...)
}
