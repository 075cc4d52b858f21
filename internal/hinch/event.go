package hinch

import (
	"slices"
	"sync"
)

// Event is the asynchronous communication primitive (paper §2 item 3b):
// a small named message, optionally carrying a string argument, sent
// from a component to a manager's event queue (or forwarded between
// queues) at any moment of a job. The queue stamps it with the sending
// job's iteration, which alone decides where it lands.
type Event struct {
	Name string
	Arg  string
}

// stamped is a queued event with the iteration and task that pushed
// it: -1, -1 when it came from outside the run.
type stamped struct {
	ev         Event
	iter, task int
}

// EventQueue is a thread-safe queue of stamped events. Only a manager's
// entry takes events off it: the entry of iteration k takes exactly the
// events stamped <= k - PipelineDepth (see managerPoll), so where an
// event lands is a function of iteration numbers, not of the schedule.
type EventQueue struct {
	mu sync.Mutex
	q  []stamped
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Push appends an event from outside the run (a UI thread, a signal
// handler). It is stamped -1, so the next manager entry takes it. It
// returns the queue depth after the push.
func (q *EventQueue) Push(ev Event) int { return q.push(ev, -1, -1) }

// push queues an event stamped with the iteration and task that
// emitted it, keeping the queue in (stamp, task ID) order and in push
// order among equal keys. It returns the queue depth after the push
// (recorded by the tracer as the queue's counter track).
func (q *EventQueue) push(ev Event, iter, task int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := len(q.q)
	for i > 0 && (q.q[i-1].iter > iter || q.q[i-1].iter == iter && q.q[i-1].task > task) {
		i--
	}
	q.q = slices.Insert(q.q, i, stamped{ev, iter, task})
	return len(q.q)
}

// Drain removes and returns the events stamped <= upTo, in queue order;
// later events stay queued.
func (q *EventQueue) Drain(upTo int) []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Event
	for len(q.q) > 0 && q.q[0].iter <= upTo {
		out = append(out, q.q[0].ev)
		q.q = q.q[1:]
	}
	return out
}

// Len returns the number of queued events.
func (q *EventQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q)
}
