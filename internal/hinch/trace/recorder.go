// Package trace is the reference implementation of the hinch.Tracer
// flight recorder: a set of per-shard ring buffers with no locks or
// atomics on the record path, a Perfetto-loadable Chrome trace-event
// exporter, and invariant checks used by the tests.
//
// The recorder follows the shard write discipline documented on
// hinch.Tracer: shard 0 is serialised by the engine (its lock, or the
// single sim goroutine) and shard w+1 is private to worker w, so each
// ring can be a plain slice. Rings have flight-recorder semantics —
// when one fills up, the oldest events are overwritten and counted as
// dropped, so tracing a long run costs bounded memory and the tail of
// the run (usually the part being debugged) survives.
package trace

import (
	"fmt"

	"xspcl/internal/hinch"
)

// DefaultShardEvents is the default ring capacity per shard (32768
// events × 32 bytes = 1 MiB per shard).
const DefaultShardEvents = 1 << 15

// shard is one ring buffer. The struct is padded to a cache line so
// concurrently-written neighbouring shards do not false-share.
type shard struct {
	buf []hinch.TraceEvent
	n   uint64 // events ever written; buf[(n-1)&mask] is the newest
	_   [32]byte
}

// Recorder is a hinch.Tracer that records events into per-shard rings.
// Create one with New, pass it as Config.Tracer, and read it back
// (Events, WritePerfetto, Validate) after App.Run returns.
//
// A Recorder may be reused across runs: Begin resets the rings in
// place when the shard count is unchanged, so benchmarks do not
// re-allocate the buffers every iteration.
type Recorder struct {
	meta   hinch.TraceMeta
	shards []shard
	size   int
	mask   uint64
	began  bool
}

// New returns a Recorder holding perShard events per shard (rounded up
// to a power of two; <=0 selects DefaultShardEvents).
func New(perShard int) *Recorder {
	if perShard <= 0 {
		perShard = DefaultShardEvents
	}
	size := 1
	for size < perShard {
		size <<= 1
	}
	return &Recorder{size: size, mask: uint64(size - 1)}
}

// Begin implements hinch.Tracer. It sizes the shard array to
// meta.Cores+1 rings, reusing existing buffers when possible.
func (r *Recorder) Begin(meta hinch.TraceMeta) {
	r.meta = meta
	r.began = true
	n := meta.Cores + 1
	if len(r.shards) == n {
		for i := range r.shards {
			r.shards[i].n = 0
		}
		return
	}
	r.shards = make([]shard, n)
	for i := range r.shards {
		r.shards[i].buf = make([]hinch.TraceEvent, r.size)
	}
}

// Emit implements hinch.Tracer. It must only be called under the shard
// write discipline (same-shard calls totally ordered); it performs one
// slice store and one increment — no locks, no allocation.
func (r *Recorder) Emit(shardIdx int, ev hinch.TraceEvent) {
	s := &r.shards[shardIdx]
	s.buf[s.n&r.mask] = ev
	s.n++
}

// End implements hinch.Tracer. The engine guarantees all Emit calls
// happen-before End (worker joins precede it), so no synchronisation
// is needed here.
func (r *Recorder) End() {}

// Meta returns the metadata of the recorded run.
func (r *Recorder) Meta() hinch.TraceMeta { return r.meta }

// Shards returns the number of rings (engine + one per worker).
func (r *Recorder) Shards() int { return len(r.shards) }

// Events returns shard's recorded events oldest-first. When the ring
// overflowed, only the newest capacity-many events remain.
func (r *Recorder) Events(shardIdx int) []hinch.TraceEvent {
	s := &r.shards[shardIdx]
	if s.n <= uint64(r.size) {
		out := make([]hinch.TraceEvent, s.n)
		copy(out, s.buf[:s.n])
		return out
	}
	head := s.n & r.mask // oldest surviving event
	out := make([]hinch.TraceEvent, 0, r.size)
	out = append(out, s.buf[head:]...)
	out = append(out, s.buf[:head]...)
	return out
}

// Total returns how many events survive across all shards.
func (r *Recorder) Total() int {
	t := 0
	for i := range r.shards {
		n := r.shards[i].n
		if n > uint64(r.size) {
			n = uint64(r.size)
		}
		t += int(n)
	}
	return t
}

// Dropped returns how many events were overwritten by ring overflow.
func (r *Recorder) Dropped() int64 {
	var d int64
	for i := range r.shards {
		if n := r.shards[i].n; n > uint64(r.size) {
			d += int64(n - uint64(r.size))
		}
	}
	return d
}

// Validate checks the recorded trace against the run's Report:
//   - every span has a worker inside the run's core count,
//     a non-negative duration and does not overlap the previous span
//     on the same worker (spans tile each worker's timeline);
//   - per-shard timestamps of spans never decrease;
//   - when no events were dropped, every counter the Report carries
//     equals what the ring recorded at the same boundary. This is the
//     one statement of counter = event agreement: spans = Jobs (skips
//     are no-ops and are excluded from both), counted retires =
//     Iterations, reconfig-apply = Reconfigs, event-push + degrade =
//     Events, fault/retry/degrade = Faults/Retries/Degradations,
//     park = Sched.Parks, the jobs moved by steal hits (the sum of
//     their Arg — a hit takes a batch) = Sched.Steals, stall = Stalls;
//   - no iteration takes a buffer set twice and, when no events were
//     dropped, stream-acquire events = iteration launches (every
//     launched iteration acquires exactly once, skipped tails
//     included) = stream-release events.
func Validate(r *Recorder, rep *hinch.Report) error {
	if !r.began {
		return fmt.Errorf("trace: recorder was never attached to a run")
	}
	meta := r.meta
	if len(r.shards) != meta.Cores+1 {
		return fmt.Errorf("trace: %d shards for %d cores", len(r.shards), meta.Cores)
	}
	var n [hinch.TraceStall + 1]int64 // events per kind
	var counted, stolen int64
	lastEnd := make(map[int32]int64, meta.Cores)
	acquired := map[int32]bool{} // iterations seen taking their buffer set
	for si := 0; si < len(r.shards); si++ {
		for _, ev := range r.Events(si) {
			n[ev.Kind]++
			switch ev.Kind {
			case hinch.TraceIterRetire:
				counted += ev.Arg
			case hinch.TraceStealHit:
				stolen += ev.Arg
			case hinch.TraceStreamAcquire:
				if acquired[ev.Iter] {
					return fmt.Errorf("trace: iteration %d took a buffer set twice", ev.Iter)
				}
				acquired[ev.Iter] = true
			}
			if ev.Kind != hinch.TraceJobSpan {
				continue
			}
			if ev.Worker < 0 || int(ev.Worker) >= meta.Cores {
				return fmt.Errorf("trace: span on worker %d of %d", ev.Worker, meta.Cores)
			}
			if ev.Arg < 0 {
				return fmt.Errorf("trace: span with negative duration %d", ev.Arg)
			}
			if ev.TS < lastEnd[ev.Worker] {
				return fmt.Errorf("trace: overlapping spans on worker %d: start %d < previous end %d",
					ev.Worker, ev.TS, lastEnd[ev.Worker])
			}
			lastEnd[ev.Worker] = ev.TS + ev.Arg
		}
	}
	if r.Dropped() != 0 {
		return nil
	}
	acquires := n[hinch.TraceStreamAcquire]
	for _, c := range []struct {
		what          string
		traced, count int64
	}{
		{"job spans / jobs", n[hinch.TraceJobSpan], rep.Jobs},
		{"counted retires / iterations", counted, int64(rep.Iterations)},
		{"reconfig-apply events / reconfigs", n[hinch.TraceReconfigApply], rep.Reconfigs},
		{"event-push + degrade events / events", n[hinch.TraceEventPush] + n[hinch.TraceDegrade], rep.Events},
		{"fault events / faults", n[hinch.TraceFault], rep.Faults},
		{"retry events / retries", n[hinch.TraceRetry], rep.Retries},
		{"degrade events / degradations", n[hinch.TraceDegrade], rep.Degradations},
		{"park events / parks", n[hinch.TracePark], rep.Sched.Parks},
		{"jobs moved by steal hits / steals", stolen, rep.Sched.Steals},
		{"stall events / stalls", n[hinch.TraceStall], rep.Stalls},
		{"stream-acquire events / iteration launches", acquires, n[hinch.TraceIterLaunch]},
		{"stream-release events / stream-acquire events", n[hinch.TraceStreamRelease], acquires},
	} {
		if c.traced != c.count {
			return fmt.Errorf("trace: %s: %d, want %d", c.what, c.traced, c.count)
		}
	}
	return nil
}
