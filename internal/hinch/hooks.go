package hinch

// This file defines the scheduler's test-only instrumentation surface.
// The conformance harness (internal/conformance) injects an
// implementation through Config.Hooks to explore schedules the real
// backend would rarely produce on its own: it yields or sleeps at the
// boundaries below and reseeds each worker's steal-victim order, so
// ordering bugs (like a job that reads its iteration's buffer set
// before a root job has taken it) surface within a bounded fuzzing
// budget instead of waiting for production timing. The engine consults
// the hooks only through its probes (probe.yield and probe.stealSeed,
// the only callers), so a normal run pays one predictable branch per
// boundary and nothing else.

// YieldPoint identifies a scheduler boundary at which an injected
// TestHooks implementation is consulted.
type YieldPoint int

// Scheduler boundaries exposed to TestHooks.Yield.
const (
	// YieldEnqueue fires in sched.push and pushBatch, just before jobs
	// become visible to other workers.
	YieldEnqueue YieldPoint = iota
	// YieldComplete fires at the start of complete(), before a finished
	// job releases its dependents.
	YieldComplete
	// YieldRetire fires at the start of retire(), before an iteration's
	// stream buffers are released and the next iteration launches.
	YieldRetire
	// YieldDispatch fires on the real backend just before a component
	// job executes, after its fast-path checks have passed.
	YieldDispatch
)

// TestHooks is the test-only scheduler instrumentation interface.
// Implementations must be safe for concurrent use by all workers.
// Production code never sets it; see internal/conformance.
type TestHooks interface {
	// Yield is called at each scheduler boundary. Implementations may
	// return immediately, call runtime.Gosched, or sleep briefly to
	// perturb the schedule. It runs on the worker's goroutine and, for
	// some points, with the engine lock held — it must not call back
	// into the engine or block on other workers' progress.
	Yield(p YieldPoint)
	// StealSeed returns the initial xorshift state for the worker's
	// steal-victim sequence. Returning 0 keeps the default seeding.
	StealSeed(worker int) uint64
}
