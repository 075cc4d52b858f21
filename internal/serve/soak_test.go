package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"xspcl/internal/conformance"
	"xspcl/internal/hinch"
)

// TestSoakSmoke is the CI soak lane: hundreds of concurrent sessions —
// conformance-generated pipelines, fault-injected degradable programs,
// deliberately broken factories — submitted from many goroutines with
// randomized cancellations, against limits tight enough to exercise
// queueing and rejection. It asserts the two properties the supervisor
// exists for:
//
//  1. exact outcome accounting: every submission lands in exactly one
//     bucket, per-session outcomes tally to the supervisor's counters,
//     and the closed-sum invariants hold at the end and at every
//     sampled mid-flight observation;
//  2. zero leaked goroutines after drain.
//
// The mix is seeded (not time-derived), so a failure reproduces.
func TestSoakSmoke(t *testing.T) {
	const (
		sessions   = 220
		submitters = 8
	)
	baseline := runtime.NumGoroutine()

	sv := New(Limits{
		MaxSessions:     8,
		MaxWorkers:      24,
		QueueDepth:      16,
		SessionDeadline: 30 * time.Second, // backstop only; sessions are short
		DrainGrace:      2 * time.Second,
	})

	type result struct {
		outcome   Outcome
		wantIters int // >0: completed sessions must report exactly this
		gotIters  int
		rejected  bool
	}
	results := make([]result, sessions)
	var wg, waiters sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := w; i < sessions; i += submitters {
				job, want := soakJob(t, rng, uint64(i))
				s, err := sv.Submit(job)
				if err != nil {
					results[i] = result{rejected: true}
					continue
				}
				// A slice of sessions gets a randomized cancel shortly
				// after submission — some land while queued, some
				// mid-run, some after natural completion.
				if rng.Intn(4) == 0 {
					delay := time.Duration(rng.Intn(3000)) * time.Microsecond
					time.AfterFunc(delay, s.Cancel)
				}
				// Waiting happens off the submission path, so the burst
				// actually pressures the admission queue into both
				// backpressure and fast rejection.
				waiters.Add(1)
				go func(i, want int, s *Session) {
					defer waiters.Done()
					outcome, rep, _ := s.Wait()
					r := result{outcome: outcome, wantIters: want}
					if rep != nil {
						r.gotIters = rep.Iterations
					}
					results[i] = r
				}(i, want, s)

				// Mid-flight consistency probe: the invariants hold at
				// every locked observation point, not just at rest.
				if i%17 == 0 {
					st := sv.Stats()
					if st.Submitted != st.Admitted+st.Rejected {
						t.Errorf("mid-flight: submitted %d != admitted %d + rejected %d",
							st.Submitted, st.Admitted, st.Rejected)
					}
					if res := st.Residual(); res < 0 {
						// Sessions may still be settling (residual > 0 is
						// in-flight work); negative means double-count.
						t.Errorf("mid-flight: negative residual %d: %+v", res, st)
					}
				}
				time.Sleep(time.Duration(rng.Intn(4000)) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	waiters.Wait()
	final := sv.Drain()

	// Exact accounting, cross-checked three ways: supervisor counters,
	// per-session outcomes, and the closed-sum invariants.
	var tally = map[Outcome]int64{}
	var rejected int64
	for i, r := range results {
		if r.rejected {
			rejected++
			continue
		}
		tally[r.outcome]++
		if r.outcome == OutcomeCompleted && r.wantIters > 0 && r.gotIters != r.wantIters {
			t.Errorf("session %d completed with %d iterations, want %d", i, r.gotIters, r.wantIters)
		}
		if r.outcome == OutcomeCancelled && r.wantIters > 0 && r.gotIters > r.wantIters {
			t.Errorf("session %d cancelled yet overran: %d > %d iterations", i, r.gotIters, r.wantIters)
		}
	}
	if final.Submitted != sessions {
		t.Errorf("submitted %d, want %d", final.Submitted, sessions)
	}
	if final.Rejected != rejected {
		t.Errorf("supervisor counted %d rejections, callers saw %d", final.Rejected, rejected)
	}
	if final.Submitted != final.Admitted+final.Rejected {
		t.Errorf("submission sum broken: %+v", final)
	}
	if res := final.Residual(); res != 0 || final.Running != 0 || final.Queued != 0 {
		t.Errorf("drain left residual %d: %+v", res, final)
	}
	for outcome, want := range map[Outcome]int64{
		OutcomeCompleted: final.Completed,
		OutcomeDegraded:  final.Degraded,
		OutcomeCancelled: final.Cancelled,
		OutcomeFailed:    final.Failed,
	} {
		if tally[outcome] != want {
			t.Errorf("outcome %s: callers saw %d, supervisor counted %d", outcome, tally[outcome], want)
		}
	}
	if final.Completed == 0 {
		t.Error("soak produced zero completed sessions — mix is broken")
	}
	if final.Failed == 0 {
		t.Error("soak produced zero failed sessions — fault mix is broken")
	}
	if final.Rejected == 0 {
		t.Error("soak produced zero rejections — the burst never pressured admission")
	}
	t.Logf("soak: %+v", final)

	// Leak check: everything the supervisor and its sessions spawned
	// must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after soak: %d before, %d after settle", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// soakJob picks one session flavour for slot i: a conformance pipeline
// (sim, deterministic), a fault-injected degradable program (exercises
// retries/holes/degradation under concurrency), a slow real-backend
// session (cancellation target), or a broken factory (failure path).
func soakJob(t *testing.T, rng *rand.Rand, seed uint64) (Job, int) {
	t.Helper()
	switch rng.Intn(10) {
	case 0: // broken factory → OutcomeFailed
		return Job{Name: fmt.Sprintf("broken-%d", seed), Cores: 1, Iterations: 1,
			New: func() (*hinch.App, error) {
				if seed%2 == 0 {
					panic("soak: deliberate factory panic")
				}
				return nil, fmt.Errorf("soak: deliberate factory error")
			}}, 0
	case 1, 2: // fault-injected degradable program → often OutcomeDegraded
		g, err := conformance.GenerateFaulty(seed)
		if err != nil {
			t.Fatal(err)
		}
		return Job{Name: fmt.Sprintf("faulty-%d", seed), Cores: 2, Iterations: g.Iters,
			New: func() (*hinch.App, error) {
				return hinch.NewApp(g.Prog, conformance.Registry(), g.Config(hinch.BackendSim, 2))
			}}, 0
	case 3: // slow real-backend session — the cancel/drain target
		return sleeperJob(fmt.Sprintf("slow-%d", seed), 50+rng.Intn(200)), 0
	default: // conformance pipeline, exact iteration oracle
		g, err := conformance.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		iters := g.Iters
		if g.Frames > 0 {
			iters = g.Frames + 40
		}
		return Job{Name: fmt.Sprintf("conf-%d", seed), Cores: 1 + rng.Intn(3), Iterations: iters,
			New: func() (*hinch.App, error) {
				return hinch.NewApp(g.Prog, conformance.Registry(), g.Config(hinch.BackendSim, 3))
			}}, g.ExpectedIterations()
	}
}
