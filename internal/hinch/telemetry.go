package hinch

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file implements the optional half of the run's observability:
// histograms (job service time, iteration latency, window occupancy,
// steal batch size, park duration) and the stalled-progress watchdog
// behind /healthz. Counters are not here — they are always on, in the
// counters shards (metrics.go).
//
// Telemetry is nil unless Config.Telemetry, and only the probes
// (probe.go) record into it: the per-writer histograms (tmShard) are
// indexed by the probe's shard, so a record is an uncontended add by
// the shard's single writer; the fields are atomic so that scrapes
// (App.Snapshot, the /metrics handler) can merge the shards mid-run
// from any goroutine.
//
// Units follow the tracer's clock domains: virtual cycles on the sim
// backend (every job is recorded, so histograms are deterministic and
// golden-pinnable) and wall nanoseconds on the real backend, where
// service times are stride-sampled (1 in 2^tmSampleShift jobs per
// worker) to keep the telemetry-on overhead inside a few percent of
// the ~200ns dispatch path.

// histBuckets is the fixed bucket count of every histogram: bucket b
// holds values v with bits.Len64(v) == b, i.e. [2^(b-1), 2^b), with
// bucket 0 holding exactly 0. 48 buckets cover ~2^47 cycles or ~39
// hours in nanoseconds.
const histBuckets = 48

// tmSampleShift is the real backend's service-time sampling stride:
// each worker times 1 in 2^tmSampleShift of its component jobs (two
// clock reads per sample). The sim backend records every job from its
// virtual duration, which costs no clock reads at all.
const (
	tmSampleShift = 5
	tmSampleMask  = 1<<tmSampleShift - 1
)

// hist is one fixed-size log-bucketed histogram. All fields are
// single-writer in the sharded layouts (or serialised by the engine
// lock), so the adds never contend; atomics make concurrent scrape
// merges race-free.
type hist struct {
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	bucket [histBuckets]atomic.Int64
}

//hinch:hotpath
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket[b].Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// snap copies the histogram into an exportable snapshot. Safe to call
// concurrently with record; the copy is consistent enough for
// monitoring (each field individually up to date).
func (h *hist) snap() HistSnap {
	return mergeHists(1, func(int) *hist { return h })
}

// mergeHists sums n histograms into one snapshot, trimmed to the
// highest non-empty bucket. Safe mid-run.
func mergeHists(n int, at func(i int) *hist) HistSnap {
	var s HistSnap
	var buckets [histBuckets]int64
	for i := 0; i < n; i++ {
		at(i).addInto(&s, buckets[:])
	}
	top := -1
	for i, c := range buckets {
		if c > 0 {
			top = i
		}
	}
	if top >= 0 {
		s.Buckets = append([]int64(nil), buckets[:top+1]...)
	}
	return s
}

// addInto accumulates this histogram into an in-progress merge.
func (h *hist) addInto(dst *HistSnap, buckets []int64) {
	dst.Count += h.count.Load()
	dst.Sum += h.sum.Load()
	if m := h.max.Load(); m > dst.Max {
		dst.Max = m
	}
	for i := range h.bucket {
		buckets[i] += h.bucket[i].Load()
	}
}

// HistSnap is a merged histogram snapshot: log2 buckets (bucket i
// counts values v with bits.Len64(v) == i — [2^(i-1), 2^i), bucket 0
// counting zeros), trimmed to the highest non-empty bucket.
type HistSnap struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<i - 1
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the first bucket whose cumulative count reaches q*Count,
// clamped to Max. Deterministic given the bucket contents.
func (s HistSnap) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			b := BucketBound(i)
			if b > s.Max {
				b = s.Max
			}
			return b
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values.
func (s HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// tmShard is one writer's histograms: per-task job service time, plus
// the two scheduler profiles only workers record.
type tmShard struct {
	svc       []hist // indexed by task ID
	stealTake hist   // jobs moved per steal hit
	parkDur   hist   // park duration in wall ns
}

// watchdogEpochs is how many consecutive watchdog epochs may pass
// without an iteration retiring before the run is flagged stalled.
const watchdogEpochs = 3

// telemetry is the engine's optional live-metrics state; nil unless
// Config.Telemetry. shards[i] belongs to probe i; occ and iterLat are
// recorded under the engine lock (or by the sim goroutine).
type telemetry struct {
	shards  []tmShard
	occ     hist // window occupancy, recorded at buffer acquire
	iterLat hist // launch -> retire latency per iteration

	// Stalled-progress watchdog: every WatchdogEpoch (virtual cycles on
	// sim, wall time on real) the engine compares its retirement
	// frontier against the previous epoch's; watchdogEpochs epochs
	// without a retirement flip stalled (and /healthz) until progress
	// resumes. wdEvery and wdNext are the epoch length and the next
	// boundary in the backend's clock; see tick.
	stalled  atomic.Bool
	stalls   atomic.Int64
	wdEvery  int64
	wdNext   int64
	wdLast   int // retireNext at the previous epoch; engine-side only
	wdMisses int // consecutive epochs without progress; engine-side only
}

// newTelemetry sizes the telemetry state for an engine and attaches it
// to every probe.
func newTelemetry(e *engine) *telemetry {
	a := e.app
	tm := &telemetry{
		shards:  make([]tmShard, len(e.probes)),
		wdEvery: int64(a.cfg.WatchdogEpoch),
		wdNext:  int64(a.cfg.WatchdogEpoch),
	}
	for i := range tm.shards {
		tm.shards[i].svc = make([]hist, len(a.plan.Tasks))
		e.probes[i].tm = tm
	}
	return tm
}

// stageHist merges task's per-shard service-time histograms into one
// snapshot. Safe mid-run.
func (tm *telemetry) stageHist(task int) HistSnap {
	return mergeHists(len(tm.shards), func(i int) *hist { return &tm.shards[i].svc[task] })
}

// tick runs the watchdog check at every epoch boundary due at now and
// returns when the next one falls due (math.MaxInt64 without
// telemetry). now is in the backend's clock: virtual cycles on sim,
// wall nanoseconds since the run started on real. Sim replays each
// boundary a clock jump passed, so stall detection stays a function of
// the virtual schedule; real runs a late check once and skips the
// boundaries it missed, as a time.Ticker does. Must be called with mu
// held on the real backend.
func (e *engine) tick(now int64) (next int64) {
	tm := e.tm
	if tm == nil {
		return math.MaxInt64
	}
	for now >= tm.wdNext {
		e.watchdogEpoch()
		if e.ws != nil {
			tm.wdNext += (now - tm.wdNext) / tm.wdEvery * tm.wdEvery
		}
		tm.wdNext += tm.wdEvery
	}
	return tm.wdNext
}

// watchdogEpoch runs one stalled-progress check, from tick. Must be
// called with mu held on the real backend.
func (e *engine) watchdogEpoch() {
	tm := e.tm
	if e.retireNext != tm.wdLast {
		tm.wdLast = e.retireNext
		tm.wdMisses = 0
		tm.stalled.Store(false)
		return
	}
	if e.finished() {
		// Nothing left to retire: an idle epilogue is not a stall.
		return
	}
	tm.wdMisses++
	if tm.wdMisses >= watchdogEpochs && !tm.stalled.Swap(true) {
		e.probes[0].stall(e.retireNext, tm.wdMisses)
	}
}
