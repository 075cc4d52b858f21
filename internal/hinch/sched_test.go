package hinch

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xspcl/internal/graph"
)

// schedFixture is a two-worker dispatch layer with no engine behind
// it: enough for publish, the deques and steals.
func schedFixture() (*engine, *wsWorker, *wsWorker) {
	cfg := Config{Backend: BackendReal, Cores: 2}
	e := &engine{ws: newSched(cfg, newProbes(cfg, 0))}
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
// completion's releases all go onto the owner's deque, its
// cross-iteration releases beneath its same-iteration ones, so the
// owner pops its own iteration first and a thief's steal from the head
// takes the next iteration first — the task's own next job too, when
// it is the sole release.
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
		e.publish(owner, ran.iter)
		if !owner.dq.full.Load() {
			t.Fatalf("deque not flagged full after publishing %d jobs", len(released))
		}
		got := drain(owner.dq.pop)
		if want := []string{"c@5", "b@5", "d@7", "a@6"}; !sameNames(got, want) {
			t.Fatalf("owner pops %v, want %v", got, want)
		}
		if owner.dq.full.Load() {
			t.Fatal("drained deque still flagged full")
		}
	})

	t.Run("thief", func(t *testing.T) {
		e, owner, thief := schedFixture()
		owner.relBuf = append(owner.relBuf, released...)
		e.publish(owner, ran.iter)
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

	// Every release set, the task's sole next job included, lands on the
	// owner's deque: no job is kept outside a queue.
	t.Run("publish", func(t *testing.T) {
		for _, tc := range []struct {
			rel  []job
			pops []string
		}{
			{[]job{{iter: 6, task: a}}, []string{"a@6"}},                            // the task's next job alone
			{[]job{{iter: 5, task: b}}, []string{"b@5"}},                            // a same-iteration release alone
			{[]job{{iter: 7, task: d}}, []string{"d@7"}},                            // another task's iteration alone
			{[]job{{iter: 6, task: a}, {iter: 5, task: b}}, []string{"b@5", "a@6"}}, // next job beside a successor
		} {
			e, owner, _ := schedFixture()
			owner.relBuf = append(owner.relBuf, tc.rel...)
			e.publish(owner, ran.iter)
			queued := len(owner.dq.buf) - owner.dq.head
			if queued != len(tc.rel) || !owner.dq.full.Load() {
				t.Errorf("releases %v: %d queued, flagged full %v", jobNames(tc.rel), queued, owner.dq.full.Load())
			}
			if len(owner.relBuf) != 0 {
				t.Errorf("releases %v: release buffer not reset", jobNames(tc.rel))
			}
			if got := drain(owner.dq.pop); !sameNames(got, tc.pops) {
				t.Errorf("releases %v: owner pops %v, want %v", jobNames(tc.rel), got, tc.pops)
			}
		}
	})

	// A task's sole next-iteration release is visible to a thief as soon
	// as the completion publishes it.
	t.Run("sole-steal", func(t *testing.T) {
		e, owner, thief := schedFixture()
		owner.relBuf = append(owner.relBuf, job{iter: 6, task: a})
		e.publish(owner, ran.iter)
		j, ok := e.ws.steal(thief)
		if !ok {
			t.Fatal("steal found nothing: the sole release is not queued")
		}
		if jobName(j) != "a@6" {
			t.Fatalf("thief steals %s, want a@6", jobName(j))
		}
		if got := drain(owner.dq.pop); len(got) != 0 {
			t.Fatalf("owner keeps %v after the steal, want nothing", got)
		}
	})
}

// TestSchedCrossHandshake drives the crossOut handshake by hand on a sim
// engine, at replica widths 1 and 2 and in both orders of the launch
// of iteration W and the completion of src@0 (src's job there waits on
// it): the cross release of src@W happens exactly once either way, by
// whichever side comes second, and a second completion of src@0
// panics.
func TestSchedCrossHandshake(t *testing.T) {
	for _, w := range []int{1, 2} {
		for _, launchFirst := range []bool{false, true} {
			name := fmt.Sprintf("W=%d/launchFirst=%v", w, launchFirst)
			app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 1, PipelineDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			e := app.eng
			if e.bufCap < w+1 {
				t.Fatalf("%s: capacity %d cannot hold %d iterations", name, e.bufCap, w+1)
			}
			src := app.plan.Tasks[0]
			if src.Name != "src" || len(app.plan.DirectSuccs(src.ID)) == 0 {
				t.Fatalf("%s: task 0 is %q, want the non-terminal src", name, src.Name)
			}
			e.widths[src.ID] = w
			p := &e.probes[0]
			launchTo := func(n int) {
				e.limit = n
				e.mu.Lock()
				e.launch(p)
				e.mu.Unlock()
			}
			srcJobs := func(k int) (n int) {
				for _, j := range e.ready {
					if j.task == src && j.iter == k {
						n++
					}
				}
				return n
			}
			launchTo(w)
			it0 := e.iterAt(0)
			completeSrc := func() {
				if _, err := e.complete(job{iter: 0, task: src, it: it0}, p); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if launchFirst {
				launchTo(w + 1)
				if h := atomic.LoadUint32(&it0.crossOut[src.ID]); h != crossLaunched || srcJobs(w) != 0 {
					t.Fatalf("%s: after launch: handshake %d, %d jobs of src@%d", name, h, srcJobs(w), w)
				}
				completeSrc()
			} else {
				completeSrc()
				if h := atomic.LoadUint32(&it0.crossOut[src.ID]); h != crossDone || e.iterAt(w) != nil {
					t.Fatalf("%s: after completion: handshake %d, iteration %d live", name, h, w)
				}
				launchTo(w + 1)
			}
			if n := atomic.LoadInt32(&e.iterAt(w).remaining[src.ID]); n != 0 || srcJobs(w) != 1 {
				t.Fatalf("%s: src@%d waits on %d dependencies, %d jobs queued; want 0 and 1", name, w, n, srcJobs(w))
			}
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "double completion") {
						t.Fatalf("%s: second completion: recovered %v, want a double-completion panic", name, r)
					}
				}()
				completeSrc()
			}()
		}
	}
}

// TestSchedStallSurfaces runs, on real at 1, 2 and 4 workers, a program
// whose sink never becomes ready (one dependency more than anything
// releases): once the window fills and the rest drains, every worker
// goes idle with iterations in flight, and the idle census must end the
// run with the stall error rather than hang.
func TestSchedStallSurfaces(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendReal, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		snk := app.plan.Tasks[len(app.plan.Tasks)-1]
		if snk.Name != "snk" {
			t.Fatalf("last task is %q, want snk", snk.Name)
		}
		app.eng.waits[snk.ID]++
		errc := make(chan error, 1)
		go func() {
			_, err := app.Run(20)
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "scheduler stalled") {
				t.Fatalf("cores=%d: run returned %v, want the stall error", cores, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("cores=%d: a run that cannot progress did not end", cores)
		}
	}
}

// TestSchedSeedPublishesOnWorkerZero runs the real backend's initial
// launch (seed) on a chain whose root is a stateless source replicated
// to width 2, so the launch releases the roots of iterations 0 and 1.
// Both go onto worker 0's deque, the only one holding work: its owner
// pops iteration 0 first, and a thief steals iteration 1.
func TestSchedSeedPublishesOnWorkerZero(t *testing.T) {
	seeded := func(t *testing.T) *engine {
		reg := testRegistry()
		reg.Register("ssrc", ClassSpec{New: func() Component { return &intSource{} }, Out: []string{"out"}, Stateless: true})
		prog := chainProg()
		for _, n := range prog.Components() {
			if n.Name == "src" {
				n.Class = "ssrc"
				n.Params = graph.Params{graph.ReplicateParam: "2"}
			}
		}
		app, err := NewApp(prog, reg, Config{Backend: BackendReal, Cores: 3})
		if err != nil {
			t.Fatal(err)
		}
		e := app.eng
		if w := e.widths[0]; app.plan.Tasks[0].Name != "src" || w != 2 {
			t.Fatalf("task 0 is %q at width %d, want src at 2", app.plan.Tasks[0].Name, w)
		}
		e.limit = 20
		e.seed()
		w0 := e.ws.workers[0]
		if got, want := jobNames(w0.dq.buf[w0.dq.head:]), []string{"src@1", "src@0"}; !sameNames(got, want) || len(w0.relBuf) != 0 {
			t.Fatalf("worker 0's deque holds %v (steal end first), %d unpublished; want %v", got, len(w0.relBuf), want)
		}
		for _, w := range e.ws.workers[1:] {
			if w.dq.full.Load() || len(w.dq.buf) != w.dq.head {
				t.Fatalf("worker %d's deque holds %v", w.id, jobNames(w.dq.buf[w.dq.head:]))
			}
		}
		return e
	}

	t.Run("owner", func(t *testing.T) {
		e := seeded(t)
		if got, want := drain(e.ws.workers[0].dq.pop), []string{"src@0", "src@1"}; !sameNames(got, want) {
			t.Fatalf("worker 0 pops %v, want %v", got, want)
		}
	})

	t.Run("thief", func(t *testing.T) {
		e := seeded(t)
		j, ok := e.ws.steal(e.ws.workers[1])
		if !ok {
			t.Fatal("steal found nothing")
		}
		if jobName(j) != "src@1" {
			t.Fatalf("thief steals %s, want src@1", jobName(j))
		}
		if got, want := drain(e.ws.workers[0].dq.pop), []string{"src@0"}; !sameNames(got, want) {
			t.Fatalf("worker 0 keeps %v, want %v", got, want)
		}
	})
}
