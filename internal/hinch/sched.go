package hinch

import (
	"sync"
	"sync/atomic"
)

// This file implements the real backend's work-stealing dispatch layer.
// Each worker owns a deque of ready jobs: the owner pushes and pops at
// the tail, thieves steal from the head. The dispatch rule is the sim
// ready queue's — finish the oldest iteration first, and let
// next-iteration work fill idle workers — kept without a shared queue
// by the order in which a completion publishes its releases
// (publish): the cross-iteration releases go in beneath the
// same-iteration ones. The owner therefore pops its own iteration's
// successors first, the consumers of data it just wrote (cache-warm),
// and a thief takes the next iteration from the head. The initial
// launch, before any worker starts, acts as worker 0 and publishes
// onto worker 0's deque by the same rule (seed).
//
// Idle workers park on a per-worker buffered channel after registering
// on an idle list; producers wake exactly one parked worker per push
// instead of broadcasting on a global condvar, which avoids the
// thundering herd the seed scheduler suffered from.

// wsDeque is a mutex-guarded deque of jobs. Contention is naturally
// low: only the owner and occasional thieves touch it, and the critical
// sections are a few instructions.
type wsDeque struct {
	mu   sync.Mutex
	buf  []job
	head int // index of the oldest element in buf
	// full mirrors len(buf) > head for lock-free emptiness probes. It is
	// stored under mu, and only when the deque turns empty or non-empty,
	// so a push onto a non-empty deque or a pop that leaves jobs behind
	// writes no shared word besides the lock.
	full atomic.Bool
}

// pushN appends a non-empty batch of jobs in one lock acquisition — the
// deque half of batched dispatch (one interaction per run of released
// jobs instead of one per job).
//
//hinch:hotpath
func (d *wsDeque) pushN(js []job) {
	d.mu.Lock()
	if len(d.buf) == d.head {
		d.full.Store(true)
	}
	d.buf = append(d.buf, js...)
	d.mu.Unlock()
}

// pop removes the newest job (owner side, LIFO).
func (d *wsDeque) pop() (job, bool) {
	if !d.full.Load() {
		return job{}, false
	}
	d.mu.Lock()
	if d.head == len(d.buf) {
		d.mu.Unlock()
		return job{}, false
	}
	n := len(d.buf) - 1
	j := d.buf[n]
	d.buf[n] = job{}
	d.buf = d.buf[:n]
	d.drained()
	d.mu.Unlock()
	return j, true
}

// drained rewinds an emptied deque and clears its flag; mu held.
func (d *wsDeque) drained() {
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
		d.full.Store(false)
	}
}

// stealN removes up to max oldest jobs into dst (thief side, FIFO) and
// reports how many it took: at most half of what is queued (rounded
// up), so the victim keeps the cache-warm tail it is about to pop. One
// lock acquisition moves the whole run, where single-job stealing
// would re-contend the victim's deque per job.
//
//hinch:hotpath
func (d *wsDeque) stealN(dst []job, max int) int {
	if !d.full.Load() {
		return 0
	}
	d.mu.Lock()
	avail := len(d.buf) - d.head
	if avail == 0 {
		d.mu.Unlock()
		return 0
	}
	take := (avail + 1) / 2
	if take > max {
		take = max
	}
	copy(dst[:take], d.buf[d.head:d.head+take])
	for i := 0; i < take; i++ {
		d.buf[d.head+i] = job{}
	}
	d.head += take
	d.drained()
	d.mu.Unlock()
	return take
}

// wsWorker is one worker goroutine's scheduler state.
type wsWorker struct {
	id   int
	dq   wsDeque
	park chan struct{} // buffered(1): a pending wake token
	rng  uint64        // xorshift state for victim selection

	p  *probe     // this worker's probe (engine.probes[id+1])
	rc RunContext // reusable run context for this worker's jobs

	// relBuf collects the jobs released by the job this worker is
	// executing; publish makes them runnable as one batch when the job
	// finishes.
	relBuf []job

	// stealBuf is the scratch the worker steals batches into.
	stealBuf [stealMax]job
}

// nextRand is a xorshift64 step — victim order only needs to be cheap
// and spread out, not high quality.
func (w *wsWorker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// stealMax caps how many jobs one steal moves: enough to amortise the
// victim-deque lock over a run, small enough that work keeps spreading
// to further thieves.
const stealMax = 8

// sched is the shared work-stealing state of one real-backend run.
//
// The run ends by idle census, with no count of jobs in flight: a job
// is queued, run by a worker, or waits on a dependency only a worker
// releases, so with every worker on the idle list and every queue
// empty the run is over or stalled. Wakes and deregistrations bump
// epoch, which the census (park) reads before and after its scan: a
// worker that left, ran a job and came back meanwhile cannot fool it.
type sched struct {
	workers []*wsWorker

	idleMu sync.Mutex
	idle   []*wsWorker
	epoch  uint64 // departures from idle; guarded by idleMu
	nidle  atomic.Int32
	done   atomic.Bool
}

// newSched builds the scheduler and binds worker w to probes[w+1].
func newSched(cfg Config, probes []probe) *sched {
	n := cfg.Cores
	s := &sched{workers: make([]*wsWorker, n)}
	s.idle = make([]*wsWorker, 0, n)
	for i := range s.workers {
		p := &probes[i+1]
		s.workers[i] = &wsWorker{
			id:   i,
			park: make(chan struct{}, 1),
			// Schedule exploration may reseed the victim sequence to visit
			// steal orders the default seeding never produces.
			rng: p.stealSeed(uint64(i)*0x9e3779b97f4a7c15 + 1),
			p:   p,
		}
		p.w = s.workers[i]
		s.workers[i].rc.p = p
		s.workers[i].dq.buf = make([]job, 0, 64)
		s.workers[i].relBuf = make([]job, 0, 32)
	}
	return s
}

// signalWork notifies the scheduler that runnable work was published
// beyond what its producer will consume itself: it wakes one parked
// worker if there is one, and reports whether it did.
func (s *sched) signalWork() bool {
	if s.nidle.Load() == 0 {
		return false
	}
	s.idleMu.Lock()
	var w *wsWorker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.nidle.Store(int32(len(s.idle)))
		s.epoch++
	}
	s.idleMu.Unlock()
	if w == nil {
		return false
	}
	w.park <- struct{}{} // buffered; never blocks
	return true
}

// steal scans the other workers, in pseudo-random order, for work. A
// hit takes a batch (up to half the victim's deque): the first job is
// returned, the rest land on the thief's own deque, and one more idle
// worker is woken to keep the work spreading.
//
//hinch:hotpath
func (s *sched) steal(w *wsWorker) (job, bool) {
	w.p.stealTry()
	n := len(s.workers)
	start := 0
	if n > 1 {
		start = int(w.nextRand() % uint64(n))
	}
	for i := 0; i < n; i++ {
		v := s.workers[(start+i)%n]
		if v == w {
			continue
		}
		took := v.dq.stealN(w.stealBuf[:], stealMax)
		if took == 0 {
			continue
		}
		if took > 1 {
			w.dq.pushN(w.stealBuf[1:took])
			if s.signalWork() {
				w.p.woke()
			}
		}
		w.p.stole(v.id, took)
		return w.stealBuf[0], true
	}
	return job{}, false
}

// anyQueued reports whether any queue holds work (approximate; used
// only to avoid parking with work visible).
func (s *sched) anyQueued() bool {
	for _, w := range s.workers {
		if w.dq.full.Load() {
			return true
		}
	}
	return false
}

// park blocks w until new work may be available or the run stops. The
// re-check after registering on the idle list closes the missed-wakeup
// window: a producer that saw nidle==0 before our registration must
// have published its job before we scan the queues. It reports true,
// without blocking, when w completed the idle census (see sched): w is
// the last worker to register, the queues are empty and no worker left
// the list meanwhile. w stays registered; finish wakes it.
func (s *sched) park(w *wsWorker) (quiet bool) {
	s.idleMu.Lock()
	s.idle = append(s.idle, w)
	s.nidle.Store(int32(len(s.idle)))
	all, epoch := len(s.idle) == len(s.workers), s.epoch
	s.idleMu.Unlock()
	if s.done.Load() || s.anyQueued() {
		// Deregister; if someone already granted us a wake token,
		// consume it instead.
		s.idleMu.Lock()
		removed := false
		for i, x := range s.idle {
			if x == w {
				s.idle = append(s.idle[:i], s.idle[i+1:]...)
				removed = true
				s.epoch++
				break
			}
		}
		s.nidle.Store(int32(len(s.idle)))
		s.idleMu.Unlock()
		if removed {
			return false
		}
	} else if all {
		s.idleMu.Lock()
		quiet = s.epoch == epoch
		s.idleMu.Unlock()
		if quiet {
			return true
		}
	}
	w.p.park()
	<-w.park
	w.p.unpark()
	return false
}

// finish stops the run: all parked workers are woken and the done flag
// stops the rest at their next loop check.
func (s *sched) finish() {
	if s.done.Swap(true) {
		return
	}
	s.idleMu.Lock()
	idle := s.idle
	s.idle = nil
	s.nidle.Store(0)
	s.idleMu.Unlock()
	for _, w := range idle {
		w.park <- struct{}{}
	}
}
