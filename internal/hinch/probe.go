package hinch

import "time"

// probe is the one seam between the engine and everything that
// observes or perturbs it. There is one probe per writer — probes[0]
// for whoever acts under the engine lock outside a worker (the sim
// goroutine, the watchdog epochs), probes[w+1] for worker w (worker
// 0's also for the initial launch, which runs before any worker
// starts) — and the engine reports each boundary it crosses (enqueue,
// dispatch, steal, park, buffer acquire/release, launch/retire,
// reconfiguration phase, event, fault, stall) with one call on the
// acting writer's probe. The call bumps the writer's counters shard —
// always on — and, when attached, feeds the telemetry histograms and
// the tracer's ring from the same arguments and the same clock read;
// test yields, steal reseeding and fault injection go through it too,
// so the engine consults no optional attachment anywhere else
// (Snapshot and report only check which are attached). A writer only
// ever holds its own probe, so the single-writer rule the counters,
// the histogram shards and the Tracer rely on is a property of who
// holds which pointer; the -race test lanes guard it.
//
// The trailing pad keeps adjacent writers off one cache line.
type probe struct {
	counters

	shard  int           // 0 = engine lock / sim goroutine, w+1 = worker w
	w      *wsWorker     // the worker behind shard w+1; nil for shard 0
	tr     Tracer        // flight recorder; nil in production
	hooks  TestHooks     // test-only schedule perturbation; nil in production
	faults FaultInjector // test-only fault injection; nil in production
	tm     *telemetry    // histograms and watchdog; nil unless Config.Telemetry

	// The writer's clock. On sim ts is the virtual clock, advanced by
	// runSim. On the real backend a tracing worker caches the end of its
	// last span in ts and stamps everything else it records with it —
	// one clock read per executed job — while the engine shard, and a
	// worker without a tracer (which keeps no cache), read the clock
	// (fresh); timestamps count nanoseconds from start, set by runReal.
	start time.Time
	ts    int64
	fresh bool

	tick uint32 // strides the real backend's service-time sampling

	_ [64]byte
}

// newProbes allocates a run's probes: the engine's plus one per
// real-backend worker.
func newProbes(cfg Config, nTasks int) []probe {
	n := 1
	if cfg.Backend == BackendReal {
		n += cfg.Cores
	}
	probes := make([]probe, n)
	for i := range probes {
		p := &probes[i]
		p.task = make([]taskCounters, nTasks)
		p.shard, p.tr, p.hooks, p.faults = i, cfg.Tracer, cfg.Hooks, cfg.Faults
		p.fresh = cfg.Backend == BackendReal && (i == 0 || p.tr == nil)
	}
	return probes
}

// now is the clock rule: the virtual clock on sim, the cached span end
// on a tracing worker, a clock read otherwise.
func (p *probe) now() int64 {
	if p.fresh {
		return p.wall()
	}
	return p.ts
}

func (p *probe) wall() int64 { return int64(time.Since(p.start)) }

// yield is the only caller of TestHooks.Yield.
func (p *probe) yield(pt YieldPoint) {
	if p.hooks != nil {
		p.hooks.Yield(pt)
	}
}

// stealSeed is the only caller of TestHooks.StealSeed: the initial
// steal-victim state of the worker behind p, def unless a hook reseeds
// it (zero keeps def: xorshift must not start at 0).
func (p *probe) stealSeed(def uint64) uint64 {
	if p.hooks != nil {
		if hs := p.hooks.StealSeed(p.shard - 1); hs != 0 {
			return hs
		}
	}
	return def
}

// inject is the only caller of FaultInjector.Inject: the fault, if any,
// for attempt (0-based) of job j.
func (p *probe) inject(j job, attempt int) Fault {
	if p.faults == nil {
		return Fault{}
	}
	return p.faults.Inject(j.task.Name, j.iter, attempt)
}

// begin and end bracket the run; they are the only callers of
// Tracer.Begin and Tracer.End. meta runs only with a tracer attached.
func (p *probe) begin(meta func() TraceMeta) {
	if p.tr != nil {
		p.tr.Begin(meta())
	}
}

func (p *probe) end() {
	if p.tr != nil {
		p.tr.End()
	}
}

// emit records an event at the writer's current time. It inlines to one
// branch at the call site when no tracer is attached.
func (p *probe) emit(kind TraceKind, iter, id int, arg int64) {
	if p.tr != nil {
		p.event(kind, iter, id, arg)
	}
}

// event is emit's out-of-line half. Engine-level kinds land on the
// runtime track (Worker -1), the rest on the writer's own.
//
//go:noinline
func (p *probe) event(kind TraceKind, iter, id int, arg int64) {
	worker := p.shard - 1
	switch kind {
	case TraceStreamAcquire, TraceStreamRelease, TraceEventDrain, TraceStall,
		TraceReconfigHalt, TraceReconfigApply, TraceReconfigResume:
		worker = -1
	}
	p.emitAt(kind, p.now(), worker, iter, id, arg)
}

// emitAt is the only caller of Tracer.Emit. Call with a tracer attached.
func (p *probe) emitAt(kind TraceKind, ts int64, worker, iter, id int, arg int64) {
	p.tr.Emit(p.shard, TraceEvent{
		TS: ts, Arg: arg, Kind: kind,
		Worker: int32(worker), Iter: int32(iter), ID: int32(id),
	})
}

// enqueue: job j became ready.
func (p *probe) enqueue(j job) { p.emit(TraceJobEnqueue, j.iter, j.task.ID, 0) }

// publish: n ready jobs are about to become visible to other workers
// in one queue operation.
func (p *probe) publish(n int) {
	p.yield(YieldEnqueue)
	if n > 1 {
		p.batches.Add(1)
	}
}

// woke: a publish woke a parked worker.
func (p *probe) woke() { p.wakes.Add(1) }

// ran counts an executed job of task id — the one add the real
// backend's per-job hot path always pays.
func (p *probe) ran(id int) { p.task[id].jobs.Add(1) }

// dispatch opens the execution of job j on a real-backend worker: it
// counts the job and, when its service time is wanted — for a deadline,
// or picked by telemetry's 1-in-32 stride — returns the clock at its
// start; -1 otherwise.
//
//hinch:hotpath
func (p *probe) dispatch(j job, deadline bool) (start int64) {
	p.ran(j.task.ID)
	timed := deadline
	if p.tm != nil {
		p.tick++
		timed = timed || p.tick&tmSampleMask == 0
	}
	if timed {
		return p.wall()
	}
	return -1
}

// executed closes what dispatch opened. One clock read ends both the
// service time (returned; 0 when the job was not timed) and the span;
// the span starts at the worker's cached timestamp and its end becomes
// the new cache, so every secondary event the job's completion
// produces reuses it.
//
//hinch:hotpath
func (p *probe) executed(j job, start int64) (svc int64) {
	if start < 0 && p.tr == nil {
		return 0
	}
	end := p.wall()
	if start >= 0 {
		svc = end - start
		if p.tm != nil && p.tick&tmSampleMask == 0 {
			p.tm.shards[p.shard].svc[j.task.ID].record(svc)
		}
	}
	if p.tr != nil {
		p.emitAt(TraceJobSpan, p.ts, p.shard-1, j.iter, j.task.ID, end-p.ts)
		p.ts = end
	}
	return svc
}

// charge books a job the sim backend executed: its ops and memory
// cycles, and its virtual duration into the task's service-time
// histogram — every job, so sim histograms are exact and deterministic.
func (p *probe) charge(id int, ops, mem, dur int64) {
	tc := &p.task[id]
	tc.ops.Add(ops)
	tc.memCycles.Add(mem)
	if p.tm != nil {
		p.tm.shards[p.shard].svc[id].record(dur)
	}
}

// simSpan records the span of a sim job at its completion: it ran on
// core from start for dur virtual cycles.
func (p *probe) simSpan(j job, core int, start, dur int64) {
	if p.tr != nil {
		p.emitAt(TraceJobSpan, start, core, j.iter, j.task.ID, dur)
	}
}

// skip: job j ran as a zero-cost no-op on core (sim) or worker (real).
func (p *probe) skip(j job, core int) {
	if p.tr != nil {
		p.emitAt(TraceJobSkip, p.now(), core, j.iter, j.task.ID, 0)
	}
}

// stealTry: the worker's own deque came up empty and it scans for work.
func (p *probe) stealTry() { p.stealAttempts.Add(1) }

// stole: the worker took a batch of took jobs from victim's deque. The
// stolen run came from a cold deque; refreshing the cached timestamp
// starts its first span here, not at this worker's last job.
func (p *probe) stole(victim, took int) {
	p.steals.Add(int64(took))
	if p.tm != nil {
		p.tm.shards[p.shard].stealTake.record(int64(took))
	}
	if p.tr != nil {
		p.ts = p.wall()
		p.event(TraceStealHit, -1, victim, int64(took))
	}
}

// park and unpark bracket a worker's blocking wait. The park instant
// is kept in ts; the refresh at unpark keeps the idle gap out of the
// next job's span.
func (p *probe) park() {
	p.parks.Add(1)
	if p.tm != nil || p.tr != nil {
		p.ts = p.wall()
		p.emit(TracePark, -1, -1, 0)
	}
}

func (p *probe) unpark() {
	if p.tm == nil && p.tr == nil {
		return
	}
	parked := p.ts
	p.ts = p.wall()
	if p.tm != nil {
		p.tm.shards[p.shard].parkDur.record(p.ts - parked)
	}
	p.emit(TraceUnpark, -1, -1, 0)
}

// acquired: job j's iteration took its buffer set, leaving occ sets
// held. released: iteration iter returned its set at retirement.
func (p *probe) acquired(j job, occ int32) {
	if p.tm != nil {
		p.tm.occ.record(int64(occ))
	}
	p.emit(TraceStreamAcquire, j.iter, j.task.ID, int64(occ))
}

func (p *probe) released(iter int, occ int32) { p.emit(TraceStreamRelease, iter, -1, int64(occ)) }

// launch: iteration k entered the pipeline. Its launch time is kept
// for retire's latency histogram.
func (p *probe) launch(it *iterState, k int) {
	p.launched.Add(1)
	if p.tm == nil && p.tr == nil {
		return
	}
	it.launchTS = p.now()
	if p.tr != nil {
		p.emitAt(TraceIterLaunch, it.launchTS, p.shard-1, k, -1, 0)
	}
}

// retire: iteration k left the pipeline; counted says it was processed
// rather than cancelled. retired is bumped before processed, the
// reverse of fold's read order.
func (p *probe) retire(it *iterState, k int, counted bool) {
	p.retired.Add(1)
	var arg int64
	if counted {
		p.processed.Add(1)
		arg = 1
	}
	if p.tm == nil && p.tr == nil {
		return
	}
	ts := p.now()
	if p.tm != nil {
		p.tm.iterLat.record(ts - it.launchTS)
	}
	if p.tr != nil {
		p.emitAt(TraceIterRetire, ts, p.shard-1, k, -1, arg)
	}
}

// halt, apply and resume are the three phases of manager mgr's
// reconfiguration; gate is the last iteration that ran the old
// configuration, stall the virtual cycles the splice charged.
func (p *probe) halt(mgr, gate int) { p.emit(TraceReconfigHalt, gate, mgr, 0) }

func (p *probe) apply(mgr, gate int, stall int64) {
	p.reconfigs.Add(1)
	p.emit(TraceReconfigApply, gate, mgr, stall)
}

func (p *probe) resume(mgr, gate int) { p.emit(TraceReconfigResume, gate, mgr, 0) }

// eventPush: a component pushed an event to queue, now depth deep.
func (p *probe) eventPush(iter, queue, depth int) {
	p.events.Add(1)
	p.emit(TraceEventPush, iter, queue, int64(depth))
}

// eventDrain: the manager entry of iteration iter took n events off queue.
func (p *probe) eventDrain(iter, queue, n int) { p.emit(TraceEventDrain, iter, queue, int64(n)) }

// fault: attempt (1-based) of job j failed and was contained.
func (p *probe) fault(j job, attempt int) {
	p.task[j.task.ID].faults.Add(1)
	p.emit(TraceFault, j.iter, j.task.ID, int64(attempt))
}

// retry: job j is re-attempted after backoff.
func (p *probe) retry(j job, backoff time.Duration) {
	p.task[j.task.ID].retries.Add(1)
	p.emit(TraceRetry, j.iter, j.task.ID, int64(backoff))
}

// degrade: the runtime pushed a synthetic fault event for job j to
// manager mgr's queue, now depth deep.
func (p *probe) degrade(j job, mgr, depth int) {
	p.degradations.Add(1)
	p.events.Add(1)
	p.emit(TraceDegrade, j.iter, mgr, int64(depth))
}

// stall: the watchdog saw misses epochs pass without a retirement;
// oldest is the iteration the pipeline is stuck behind.
func (p *probe) stall(oldest, misses int) {
	p.tm.stalls.Add(1)
	p.emit(TraceStall, oldest, -1, int64(misses))
}
