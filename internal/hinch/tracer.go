package hinch

// This file defines the runtime's always-available tracing surface: a
// flight recorder the engine's probes (probe.go, the only callers of
// Emit) feed span and counter events while a run executes. The tracer
// is nil in production — a boundary then costs one predictable branch
// — and the reference implementation (a lock-free per-worker ring
// buffer with a Perfetto exporter) lives in internal/hinch/trace,
// keeping the hot path free of any I/O or allocation.
//
// Timestamps live in two clock domains, chosen per backend:
//
//   - sim: the virtual cycle clock of the discrete-event simulation.
//     Traces are then fully deterministic — two runs of the same
//     program produce byte-identical exports — and diffable across
//     scheduler changes.
//   - real: monotonic nanoseconds since the run started. Clock reads
//     cost tens of nanoseconds on virtualised hosts, so the engine
//     reads the clock once per executed job (at span end) and reuses
//     the cached value for every other event in that job's wake
//     (enqueues, retirement, buffer releases). Event timestamps on the
//     real backend are therefore exact at span boundaries and
//     conservatively stale (by at most one job) elsewhere.
//
// Write safety follows a shard discipline rather than locks: a probe
// emits to its own shard only, so shard 0 is only written under the
// engine lock (or by the single sim goroutine), and shard w+1 is only
// written by worker w. A Tracer implementation may therefore keep one
// plain ring per shard with no atomics at all.

// TraceKind identifies what a TraceEvent records.
type TraceKind uint8

// Trace event kinds. The ID and Arg fields are kind-specific.
const (
	// TraceJobEnqueue: a job became ready (ID = task, Iter set). On the
	// real backend the timestamp is the producing job's span end.
	TraceJobEnqueue TraceKind = iota
	// TraceJobSpan: a job executed. TS is the span start, Arg the
	// duration (cycles or ns), ID the task, Worker the core/worker.
	TraceJobSpan
	// TraceJobSkip: a job ran as a zero-cost no-op (cancelled iteration
	// or disabled option). ID = task.
	TraceJobSkip
	// TraceIterLaunch: iteration Iter entered the pipeline.
	TraceIterLaunch
	// TraceIterRetire: iteration Iter retired. Arg = 1 when it counted
	// as processed, 0 when it was cancelled by EOS.
	TraceIterRetire
	// TraceStreamAcquire: iteration Iter took its stream-buffer set
	// from the window, at its first dispatched job, task ID's (a root).
	// Arg = the window's occupancy after the acquire.
	TraceStreamAcquire
	// TraceStreamRelease: iteration Iter returned its set at
	// retirement. ID = -1, Arg = the window's occupancy after the
	// release.
	TraceStreamRelease
	// TraceEventPush: an event was pushed to queue ID. Arg = queue
	// depth after the push.
	TraceEventPush
	// TraceEventDrain: a manager drained queue ID. Arg = events taken.
	TraceEventDrain
	// TraceStealHit: worker Worker stole a batch of jobs from worker
	// ID's deque. Arg = jobs taken (what Report.Sched.Steals counts).
	TraceStealHit
	// TracePark: worker Worker ran out of work and is parking.
	TracePark
	// TraceUnpark: worker Worker resumed after a park.
	TraceUnpark
	// TraceReconfigHalt: manager ID detected a configuration change and
	// halted its subgraph. Iter = the last iteration allowed in.
	TraceReconfigHalt
	// TraceReconfigApply: manager ID's subgraph reached quiescence and
	// the pending options were spliced. Arg = the charged stall cycles
	// (sim backend; 0 on real).
	TraceReconfigApply
	// TraceReconfigResume: manager ID's pipeline fully drained and the
	// parked iterations resumed.
	TraceReconfigResume
	// TraceRetry: task ID's attempt failed and a retry was scheduled
	// under its failure policy. Arg = the backoff (cycles or ns).
	TraceRetry
	// TraceFault: an attempt of task ID failed and was contained by a
	// failure policy. Arg = the attempt number (1-based).
	TraceFault
	// TraceDegrade: a synthetic fault event was emitted to manager ID's
	// queue (policy exhaustion or watchdog overrun). Arg = queue depth
	// after the push.
	TraceDegrade
	// TraceBatch: worker Worker finished a chained run of same-task
	// consecutive iterations (batched dispatch, real backend only). One
	// header per run; Arg = the run length: 1 + the dispatched jobs the
	// run took off the chain slot (Sched.Chained sums Arg - 1).
	// The per-job TraceJobSpan events are emitted as usual.
	TraceBatch
	// TraceStall: the telemetry watchdog saw Arg consecutive epochs
	// without an iteration retiring. Iter = the oldest unretired
	// iteration.
	TraceStall
)

// String names the kind for exporters and diagnostics.
func (k TraceKind) String() string {
	switch k {
	case TraceJobEnqueue:
		return "enqueue"
	case TraceJobSpan:
		return "job"
	case TraceJobSkip:
		return "skip"
	case TraceIterLaunch:
		return "launch"
	case TraceIterRetire:
		return "retire"
	case TraceStreamAcquire:
		return "stream-acquire"
	case TraceStreamRelease:
		return "stream-release"
	case TraceEventPush:
		return "event-push"
	case TraceEventDrain:
		return "event-drain"
	case TraceStealHit:
		return "steal"
	case TracePark:
		return "park"
	case TraceUnpark:
		return "unpark"
	case TraceReconfigHalt:
		return "reconfig-halt"
	case TraceReconfigApply:
		return "reconfig-apply"
	case TraceReconfigResume:
		return "reconfig-resume"
	case TraceRetry:
		return "retry"
	case TraceFault:
		return "fault"
	case TraceDegrade:
		return "degrade"
	case TraceBatch:
		return "batch"
	case TraceStall:
		return "stall"
	}
	return "unknown"
}

// TraceEvent is one recorded event. The struct is 32 bytes so a ring
// buffer of them stays cache-friendly.
type TraceEvent struct {
	// TS is the event time: virtual cycles (sim) or monotonic
	// nanoseconds since run start (real). For TraceJobSpan it is the
	// span start.
	TS int64
	// Arg is kind-specific: span duration, occupancy, queue depth,
	// drained count or stall cycles.
	Arg int64
	// Worker is the display track: the executing core/worker, or -1
	// for engine-level (runtime track) events.
	Worker int32
	// Iter is the iteration the event belongs to, or -1.
	Iter int32
	// ID is kind-specific: task, queue, manager or victim worker index
	// (resolved through TraceMeta's name tables).
	ID int32
	// Kind identifies the event.
	Kind TraceKind
}

// TraceMeta is the run metadata handed to Tracer.Begin: the name
// tables TraceEvent.ID indexes into, the worker count and the clock
// domain.
type TraceMeta struct {
	// Cores is the number of cores (sim) or workers (real). Shards are
	// numbered 0 (engine) and 1..Cores (per worker).
	Cores int
	// Wall is true on the real backend (timestamps are nanoseconds)
	// and false on the sim backend (timestamps are virtual cycles).
	Wall bool
	// Tasks maps task IDs to task names (plan order).
	Tasks []string
	// Queues maps queue indices to event-queue names.
	Queues []string
	// Managers maps manager indices to manager names.
	Managers []string
}

// Tracer is the run-time tracing interface. Production runs leave
// Config.Tracer nil; internal/hinch/trace provides the ring-buffer
// flight recorder used by the CLIs and tests.
//
// Begin is called once before any Emit, End once after execution has
// fully stopped. Emit must be safe under the shard discipline
// documented above: calls with the same shard index are totally
// ordered (shard 0 by the engine lock, shard w+1 by worker w's
// goroutine), calls with different shards may be concurrent.
type Tracer interface {
	Begin(meta TraceMeta)
	Emit(shard int, ev TraceEvent)
	End()
}
