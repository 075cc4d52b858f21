package hinch

import (
	"fmt"
	"testing"

	"xspcl/internal/graph"
)

// schedFixture is a two-worker dispatch layer with no engine behind
// it: enough for flushReleases, the deques and steals. One job is in
// flight: the one whose releases the test flushes.
func schedFixture() (*engine, *wsWorker, *wsWorker) {
	cfg := Config{Backend: BackendReal, Cores: 2}
	e := &engine{ws: newSched(cfg, newProbes(cfg, 0))}
	e.ws.inflight.Store(1)
	return e, e.ws.workers[0], e.ws.workers[1]
}

func jobName(j job) string { return fmt.Sprintf("%s@%d", j.task.Name, j.iter) }

func jobNames(js []job) []string {
	var out []string
	for _, j := range js {
		out = append(out, jobName(j))
	}
	return out
}

// drain empties a deque through take and names the jobs in take order.
func drain(take func() (job, bool)) []string {
	var got []string
	for j, ok := take(); ok; j, ok = take() {
		got = append(got, jobName(j))
	}
	return got
}

func sameNames(a, b []string) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestSchedReleaseOrder pins the real backend's dispatch rule: a
// completion's cross-iteration releases are published beneath its
// same-iteration ones, so the owner pops its own iteration first and a
// thief's steal from the head takes the next iteration first; the
// chain slot takes the task's next-iteration job only when it is the
// sole release.
func TestSchedReleaseOrder(t *testing.T) {
	a := &graph.Task{ID: 0, Name: "a"}
	b := &graph.Task{ID: 1, Name: "b"}
	c := &graph.Task{ID: 2, Name: "c"}
	d := &graph.Task{ID: 3, Name: "d"}
	ran := job{iter: 5, task: a}
	// Completion order: a successor, a's next job, another successor,
	// the first job of an iteration the completion launched.
	released := []job{{iter: 5, task: b}, {iter: 6, task: a}, {iter: 5, task: c}, {iter: 7, task: d}}

	t.Run("owner", func(t *testing.T) {
		e, owner, _ := schedFixture()
		owner.relBuf = append(owner.relBuf, released...)
		e.flushReleases(owner, ran)
		if owner.hasNext {
			t.Fatalf("chain slot took %s from a batch of %d", jobName(owner.next), len(released))
		}
		// The flush ends the released-from job and counts its releases.
		if n := e.ws.inflight.Load(); n != int64(len(released)) {
			t.Fatalf("inflight %d after publishing %d jobs", n, len(released))
		}
		got := drain(owner.dq.pop)
		if want := []string{"c@5", "b@5", "d@7", "a@6"}; !sameNames(got, want) {
			t.Fatalf("owner pops %v, want %v", got, want)
		}
	})

	t.Run("thief", func(t *testing.T) {
		e, owner, thief := schedFixture()
		owner.relBuf = append(owner.relBuf, released...)
		e.flushReleases(owner, ran)
		j, ok := e.ws.steal(thief)
		if !ok {
			t.Fatal("steal found nothing")
		}
		// A steal takes half the victim's deque from the head: both
		// cross-iteration jobs, the oldest run first.
		got := append([]string{jobName(j)}, drain(thief.dq.pop)...)
		if want := []string{"a@6", "d@7"}; !sameNames(got, want) {
			t.Fatalf("thief takes %v, want %v", got, want)
		}
		if got, want := drain(owner.dq.pop), []string{"c@5", "b@5"}; !sameNames(got, want) {
			t.Fatalf("owner keeps %v, want %v", got, want)
		}
	})

	t.Run("chain", func(t *testing.T) {
		for _, tc := range []struct {
			rel   []job
			chain bool
		}{
			{[]job{{iter: 6, task: a}}, true},                      // the task's next job alone
			{[]job{{iter: 5, task: b}}, false},                     // a same-iteration release alone
			{[]job{{iter: 7, task: d}}, false},                     // another task's iteration alone
			{[]job{{iter: 6, task: a}, {iter: 5, task: b}}, false}, // next job beside a successor
		} {
			e, owner, _ := schedFixture()
			owner.relBuf = append(owner.relBuf, tc.rel...)
			e.flushReleases(owner, ran)
			if owner.hasNext != tc.chain {
				t.Errorf("releases %v: chained %v, want %v", jobNames(tc.rel), owner.hasNext, tc.chain)
			}
			queued := int(owner.dq.size.Load())
			if owner.hasNext {
				queued++
			}
			if queued != len(tc.rel) || e.ws.inflight.Load() != int64(len(tc.rel)) {
				t.Errorf("releases %v: %d visible, inflight %d", jobNames(tc.rel), queued, e.ws.inflight.Load())
			}
			if len(owner.relBuf) != 0 {
				t.Errorf("releases %v: release buffer not reset", jobNames(tc.rel))
			}
		}
	})
}
