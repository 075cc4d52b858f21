package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"xspcl/internal/hinch"
)

// chromeEvent is one entry of the Chrome trace-event format
// (Perfetto's legacy JSON importer). Field subset used here:
// ph "M" metadata, "X" complete slice, "i" instant, "C" counter,
// "s"/"f" flow start/finish.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData"`
}

// WriteFile exports the recorded trace to path as Chrome trace-event
// JSON; open it in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exportRec is one merged-stream entry: an event plus its merge key
// (timestamp, shard, emission order), so equal-timestamp events from
// different shards still serialise deterministically.
type exportRec struct {
	ev    hinch.TraceEvent
	shard int
	seq   int
}

// collect merges all shards into one totally-ordered stream. When last
// is positive only the newest last events survive the merge (the tail
// of the flight recorder).
func (r *Recorder) collect(last int) []exportRec {
	var all []exportRec
	for si := 0; si < len(r.shards); si++ {
		for i, ev := range r.Events(si) {
			all = append(all, exportRec{ev: ev, shard: si, seq: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.TS != b.ev.TS {
			return a.ev.TS < b.ev.TS
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.seq < b.seq
	})
	if last > 0 && len(all) > last {
		all = all[len(all)-last:]
	}
	return all
}

// Tail returns the newest last events across all shards in the merged
// total order (all of them when last <= 0). Reading a live Recorder
// mid-run is best-effort: workers keep writing while the rings are
// copied, so an event at a ring's write edge may be torn — acceptable
// for a black-box dump, never use it for invariant checks.
func (r *Recorder) Tail(last int) []hinch.TraceEvent {
	recs := r.collect(last)
	out := make([]hinch.TraceEvent, len(recs))
	for i, rc := range recs {
		out[i] = rc.ev
	}
	return out
}

// WritePerfetto writes the trace as Chrome trace-event JSON. One track
// (tid) per core/worker plus a "runtime" track for engine-level events;
// job executions are complete slices, stream occupancy and event-queue
// depth are counter tracks, and each reconfiguration renders as a
// halt/drain slice pair on the runtime track joined to the resume by a
// flow arrow. Timestamps are microseconds: one virtual cycle maps to
// 1 µs on the sim backend and nanoseconds divide by 1000 on the real
// one. The export is deterministic — events are merged in a total
// order and all JSON maps have sorted keys — so sim-backend traces are
// byte-identical across runs.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	if !r.began {
		return fmt.Errorf("trace: recorder was never attached to a run")
	}
	return r.export(w, r.collect(0))
}

// WritePerfettoTail exports only the newest last merged events — the
// flight-recorder tail behind /debug/trace. Safe to call mid-run under
// the best-effort caveat documented on Tail; the export itself is the
// same Perfetto JSON as WritePerfetto and stays structurally valid
// (metadata present, flow arrows matched) even when the cut or the
// dump instant strands half of a pairing.
func (r *Recorder) WritePerfettoTail(w io.Writer, last int) error {
	if !r.began {
		return fmt.Errorf("trace: recorder was never attached to a run")
	}
	return r.export(w, r.collect(last))
}

// export renders a merged record stream as Chrome trace-event JSON.
func (r *Recorder) export(w io.Writer, all []exportRec) error {
	meta := r.meta
	runtimeTID := meta.Cores
	us := func(ts int64) float64 {
		if meta.Wall {
			return float64(ts) / 1e3
		}
		return float64(ts)
	}
	tid := func(worker int32) int {
		if worker < 0 {
			return runtimeTID
		}
		return int(worker)
	}
	nameOf := func(table []string, id int32, kind string) string {
		if id >= 0 && int(id) < len(table) {
			return table[id]
		}
		return fmt.Sprintf("%s#%d", kind, id)
	}

	// A degrade event starts a flow arrow that finishes at the
	// reconfiguration halt it triggers. In a tail dump the halt may lie
	// beyond the recorded window (still pending at dump time), which
	// would leave an unmatched flow start — precompute, for each
	// record, whether a matching halt follows, and skip the arrow when
	// none does.
	haltFollows := make([]bool, len(all))
	pendingHalts := map[int32]int{}
	for i := len(all) - 1; i >= 0; i-- {
		ev := all[i].ev
		if ev.Kind == hinch.TraceDegrade {
			haltFollows[i] = pendingHalts[ev.ID] > 0
		}
		if ev.Kind == hinch.TraceReconfigHalt {
			pendingHalts[ev.ID]++
		}
	}

	events := make([]chromeEvent, 0, len(all)+meta.Cores+2)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "hinch"},
	})
	for c := 0; c < meta.Cores; c++ {
		kind := "core"
		if meta.Wall {
			kind = "worker"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: c,
			Args: map[string]any{"name": fmt.Sprintf("%s %d", kind, c)},
		})
	}
	events = append(events, chromeEvent{
		Name: "thread_name", Ph: "M", PID: 0, TID: runtimeTID,
		Args: map[string]any{"name": "runtime"},
	})

	dur := func(d int64) *float64 { v := us(d); return &v }
	durUS := func(a, b float64) *float64 { v := b - a; return &v }

	// Pairing state: park→unpark per worker, halt→apply→resume per
	// manager.
	parkStart := map[int32]float64{}
	type reconfig struct {
		halt  float64
		apply float64
		seen  int // 1 = halted, 2 = applied
	}
	reconfigs := map[int32]*reconfig{}
	flowID := 0
	var highwater int64 // the window's most sets held at once
	// Degrade→halt pairing: a fault event pushed to manager m's queue
	// starts a flow arrow that lands on the reconfiguration it causes.
	degradeFlows := map[int32][]string{}

	for ri, rc := range all {
		ev := rc.ev
		switch ev.Kind {
		case hinch.TraceJobSpan:
			events = append(events, chromeEvent{
				Name: nameOf(meta.Tasks, ev.ID, "task"), Cat: "job", Ph: "X",
				TS: us(ev.TS), Dur: dur(ev.Arg), PID: 0, TID: tid(ev.Worker),
				Args: map[string]any{"iter": ev.Iter},
			})
		case hinch.TraceJobSkip:
			events = append(events, chromeEvent{
				Name: nameOf(meta.Tasks, ev.ID, "task") + " (skip)", Cat: "skip", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
				Args: map[string]any{"iter": ev.Iter},
			})
		case hinch.TraceJobEnqueue:
			events = append(events, chromeEvent{
				Name: "enqueue " + nameOf(meta.Tasks, ev.ID, "task"), Cat: "sched", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
				Args: map[string]any{"iter": ev.Iter},
			})
		case hinch.TraceIterLaunch:
			events = append(events, chromeEvent{
				Name: "launch", Cat: "iter", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
				Args: map[string]any{"iter": ev.Iter},
			})
		case hinch.TraceIterRetire:
			events = append(events, chromeEvent{
				Name: "retire", Cat: "iter", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
				Args: map[string]any{"iter": ev.Iter, "processed": ev.Arg},
			})
		case hinch.TraceStreamAcquire, hinch.TraceStreamRelease:
			if ev.Kind == hinch.TraceStreamAcquire {
				highwater = max(highwater, ev.Arg)
			}
			events = append(events, chromeEvent{
				Name: "window", Cat: "stream", Ph: "C",
				TS: us(ev.TS), PID: 0, TID: runtimeTID,
				Args: map[string]any{"occupancy": ev.Arg},
			})
		case hinch.TraceEventPush:
			events = append(events, chromeEvent{
				Name: "queue " + nameOf(meta.Queues, ev.ID, "queue"), Cat: "event", Ph: "C",
				TS: us(ev.TS), PID: 0, TID: runtimeTID,
				Args: map[string]any{"depth": ev.Arg},
			})
		case hinch.TraceEventDrain:
			events = append(events, chromeEvent{
				Name: "queue " + nameOf(meta.Queues, ev.ID, "queue"), Cat: "event", Ph: "C",
				TS: us(ev.TS), PID: 0, TID: runtimeTID,
				Args: map[string]any{"depth": 0},
			})
		case hinch.TraceStealHit:
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("steal from %d", ev.ID), Cat: "sched", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
			})
		case hinch.TraceBatch:
			events = append(events, chromeEvent{
				Name: "batch", Cat: "sched", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
				Args: map[string]any{"run": ev.Arg},
			})
		case hinch.TraceStall:
			// The telemetry watchdog saw Arg epochs without a retirement.
			events = append(events, chromeEvent{
				Name: "stall", Cat: "watchdog", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: runtimeTID, S: "p",
				Args: map[string]any{"epochs": ev.Arg, "oldest_iter": ev.Iter},
			})
		case hinch.TracePark:
			parkStart[ev.Worker] = us(ev.TS)
		case hinch.TraceUnpark:
			if start, ok := parkStart[ev.Worker]; ok {
				delete(parkStart, ev.Worker)
				events = append(events, chromeEvent{
					Name: "parked", Cat: "sched", Ph: "X",
					TS: start, Dur: durUS(start, us(ev.TS)), PID: 0, TID: tid(ev.Worker),
				})
			}
		case hinch.TraceRetry:
			// A retry span: the failed attempt's backoff window on the
			// worker that executes the re-attempt.
			events = append(events, chromeEvent{
				Name: "retry " + nameOf(meta.Tasks, ev.ID, "task"), Cat: "fault", Ph: "X",
				TS: us(ev.TS), Dur: dur(ev.Arg), PID: 0, TID: tid(ev.Worker),
				Args: map[string]any{"iter": ev.Iter, "backoff": ev.Arg},
			})
		case hinch.TraceFault:
			events = append(events, chromeEvent{
				Name: "fault " + nameOf(meta.Tasks, ev.ID, "task"), Cat: "fault", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "t",
				Args: map[string]any{"iter": ev.Iter, "attempt": ev.Arg},
			})
		case hinch.TraceDegrade:
			events = append(events, chromeEvent{
				Name: "degrade " + nameOf(meta.Managers, ev.ID, "manager"), Cat: "fault", Ph: "i",
				TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), S: "p",
				Args: map[string]any{"iter": ev.Iter, "queue_depth": ev.Arg},
			})
			// Start a fault→reconfig flow arrow; it finishes at the halt
			// this fault event triggers. Skipped when no halt follows in
			// the recorded window (the manager ignored the fault, or a
			// tail dump cut before the halt happened).
			if haltFollows[ri] {
				flowID++
				id := fmt.Sprintf("fault-%d", flowID)
				degradeFlows[ev.ID] = append(degradeFlows[ev.ID], id)
				events = append(events, chromeEvent{
					Name: "fault " + nameOf(meta.Managers, ev.ID, "manager"), Cat: "fault", Ph: "s",
					TS: us(ev.TS), PID: 0, TID: tid(ev.Worker), ID: id,
				})
			}
		case hinch.TraceReconfigHalt:
			reconfigs[ev.ID] = &reconfig{halt: us(ev.TS), seen: 1}
			for _, id := range degradeFlows[ev.ID] {
				events = append(events, chromeEvent{
					Name: "fault " + nameOf(meta.Managers, ev.ID, "manager"), Cat: "fault",
					Ph: "f", BP: "e",
					TS: us(ev.TS), PID: 0, TID: runtimeTID, ID: id,
				})
			}
			delete(degradeFlows, ev.ID)
		case hinch.TraceReconfigApply:
			if rc := reconfigs[ev.ID]; rc != nil && rc.seen == 1 {
				rc.apply = us(ev.TS)
				rc.seen = 2
				events = append(events, chromeEvent{
					Name: "reconfig halt " + nameOf(meta.Managers, ev.ID, "manager"),
					Cat:  "reconfig", Ph: "X",
					TS: rc.halt, Dur: durUS(rc.halt, rc.apply), PID: 0, TID: runtimeTID,
					Args: map[string]any{"stall_cycles": ev.Arg},
				})
			}
		case hinch.TraceReconfigResume:
			if rc := reconfigs[ev.ID]; rc != nil && rc.seen == 2 {
				delete(reconfigs, ev.ID)
				end := us(ev.TS)
				mgr := nameOf(meta.Managers, ev.ID, "manager")
				flowID++
				id := fmt.Sprintf("reconfig-%d", flowID)
				events = append(events, chromeEvent{
					Name: "reconfig drain " + mgr, Cat: "reconfig", Ph: "X",
					TS: rc.apply, Dur: durUS(rc.apply, end), PID: 0, TID: runtimeTID,
				}, chromeEvent{
					Name: "reconfig " + mgr, Cat: "reconfig", Ph: "s",
					TS: rc.halt, PID: 0, TID: runtimeTID, ID: id,
				}, chromeEvent{
					Name: "reconfig " + mgr, Cat: "reconfig", Ph: "f", BP: "e",
					TS: end, PID: 0, TID: runtimeTID, ID: id,
				})
			}
		}
	}

	clock := "virtual-cycles"
	if meta.Wall {
		clock = "wall-ns"
	}
	out := chromeTrace{
		TraceEvents: events,
		OtherData: map[string]any{
			"clock":            clock,
			"cores":            meta.Cores,
			"events_recorded":  r.Total(),
			"events_dropped":   r.Dropped(),
			"window_highwater": highwater,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
