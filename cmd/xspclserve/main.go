// Command xspclserve is the seeded soak harness for the session
// supervisor: a load generator that submits hundreds of short sessions
// — conformance-generated pipelines, fault-injected degradable
// programs, real-backend media applications, and deliberately broken
// factories — against admission limits tight enough to exercise
// queueing, rejection, cancellation and graceful drain, then audits the
// supervisor's accounting against what the callers saw.
//
//	xspclserve -sessions 300 -max-sessions 8 -queue 16 -cancel 0.25
//	xspclserve -sessions 50 -http :8080 -pace 20ms   # watchable soak
//
// The mix is a pure function of -seed, so a failing run replays
// exactly. The process exits non-zero if any invariant breaks: every
// submission must land in exactly one outcome bucket, the per-caller
// outcome tally must match the supervisor's counters, completed
// conformance sessions must report exactly their oracle iteration
// count, and drain must leave no residual session.
//
// With -http the supervisor ops surface (/metrics, /statusz, /healthz,
// pprof) serves throughout the run — point xspcltop or curl at it to
// watch sessions move through the queue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/conformance"
	"xspcl/internal/hinch"
	"xspcl/internal/obs"
	"xspcl/internal/serve"
)

func main() {
	sessions := flag.Int("sessions", 200, "sessions to submit")
	submitters := flag.Int("submitters", 8, "concurrent submitter goroutines")
	maxSessions := flag.Int("max-sessions", 8, "admission limit: concurrently running sessions")
	maxWorkers := flag.Int("max-workers", 24, "admission limit: summed worker share of running sessions (0 = unlimited)")
	queue := flag.Int("queue", 16, "admission queue depth (0 = reject when saturated)")
	deadline := flag.Duration("deadline", 30*time.Second, "per-session deadline (0 = none)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "grace given to running sessions at drain")
	seed := flag.Uint64("seed", 1, "load-mix seed (the run is a pure function of it)")
	cancelFrac := flag.Float64("cancel", 0.25, "fraction of admitted sessions given a randomized cancel")
	faultFrac := flag.Float64("faults", 0.2, "fraction of sessions drawn from the fault-injected generator")
	brokenFrac := flag.Float64("broken", 0.05, "fraction of sessions with deliberately broken factories")
	mediaFrac := flag.Float64("media", 0.1, "fraction of sessions running a real-backend media application")
	pace := flag.Duration("pace", 2*time.Millisecond, "max random inter-submission sleep per submitter")
	httpAddr := flag.String("http", "", "serve the supervisor ops surface on this address")
	report := flag.String("report", "text", "final stats format: text or json")
	flag.Parse()

	sv := serve.New(serve.Limits{
		MaxSessions:     *maxSessions,
		MaxWorkers:      *maxWorkers,
		QueueDepth:      *queue,
		SessionDeadline: *deadline,
		DrainGrace:      *drainGrace,
	})
	if *httpAddr != "" {
		ops, err := obs.Start(*httpAddr, obs.NewSupervisorServer(sv).Handler())
		if err != nil {
			fmt.Fprintln(os.Stderr, "xspclserve:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "xspclserve: ops surface on http://%s\n", ops.Addr())
		defer ops.Stop(2 * time.Second)
	}

	type result struct {
		outcome   serve.Outcome
		wantIters int
		gotIters  int
		rejected  bool
	}
	results := make([]result, *sessions)
	var wg, waiters sync.WaitGroup
	start := time.Now()
	for w := 0; w < *submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(*seed)*1000 + int64(w)))
			for i := w; i < *sessions; i += *submitters {
				job, want := makeJob(rng, *seed+uint64(i), *faultFrac, *brokenFrac, *mediaFrac)
				s, err := sv.Submit(job)
				if err != nil {
					results[i] = result{rejected: true}
					continue
				}
				if rng.Float64() < *cancelFrac {
					delay := time.Duration(rng.Intn(3000)) * time.Microsecond
					time.AfterFunc(delay, s.Cancel)
				}
				waiters.Add(1)
				go func(i, want int, s *serve.Session) {
					defer waiters.Done()
					outcome, rep, _ := s.Wait()
					r := result{outcome: outcome, wantIters: want}
					if rep != nil {
						r.gotIters = rep.Iterations
					}
					results[i] = r
				}(i, want, s)
				if *pace > 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(*pace))))
				}
			}
		}(w)
	}
	wg.Wait()
	waiters.Wait()
	final := sv.Drain()
	elapsed := time.Since(start)

	// Audit: caller-side tallies against the supervisor's counters.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "xspclserve: AUDIT FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	tally := map[serve.Outcome]int64{}
	var rejected int64
	for i, r := range results {
		if r.rejected {
			rejected++
			continue
		}
		tally[r.outcome]++
		if r.outcome == serve.OutcomeCompleted && r.wantIters > 0 && r.gotIters != r.wantIters {
			fail("session %d completed with %d iterations, oracle expects %d", i, r.gotIters, r.wantIters)
		}
	}
	if final.Submitted != int64(*sessions) {
		fail("submitted %d, want %d", final.Submitted, *sessions)
	}
	if final.Rejected != rejected {
		fail("supervisor counted %d rejections, callers saw %d", final.Rejected, rejected)
	}
	if final.Submitted != final.Admitted+final.Rejected {
		fail("submission sum broken: %+v", final)
	}
	if res := final.Residual(); res != 0 || final.Running != 0 || final.Queued != 0 {
		fail("drain left residual %d: %+v", res, final)
	}
	for outcome, want := range map[serve.Outcome]int64{
		serve.OutcomeCompleted: final.Completed,
		serve.OutcomeDegraded:  final.Degraded,
		serve.OutcomeCancelled: final.Cancelled,
		serve.OutcomeFailed:    final.Failed,
	} {
		if tally[outcome] != want {
			fail("outcome %s: callers saw %d, supervisor counted %d", outcome, tally[outcome], want)
		}
	}

	if *report == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			serve.Stats
			ElapsedMS int64 `json:"elapsed_ms"`
		}{final, elapsed.Milliseconds()})
	} else {
		fmt.Printf("xspclserve: %d sessions in %v\n", *sessions, elapsed.Round(time.Millisecond))
		fmt.Printf("  admitted %d  rejected %d\n", final.Admitted, final.Rejected)
		fmt.Printf("  completed %d  degraded %d  cancelled %d  failed %d\n",
			final.Completed, final.Degraded, final.Cancelled, final.Failed)
		fmt.Println("  audit ok: accounting closed, no residual sessions")
	}
}

// makeJob draws one session from the seeded mix. The returned want is
// the oracle iteration count a completed session must report exactly
// (0 when the flavour has no oracle).
func makeJob(rng *rand.Rand, seed uint64, faultFrac, brokenFrac, mediaFrac float64) (serve.Job, int) {
	switch p := rng.Float64(); {
	case p < brokenFrac: // broken factory → failed
		return serve.Job{Name: fmt.Sprintf("broken-%d", seed), Cores: 1, Iterations: 1,
			New: func() (*hinch.App, error) {
				if seed%2 == 0 {
					panic("xspclserve: deliberate factory panic")
				}
				return nil, fmt.Errorf("xspclserve: deliberate factory error")
			}}, 0
	case p < brokenFrac+faultFrac: // fault-injected degradable program
		g, err := conformance.GenerateFaulty(seed)
		if err != nil {
			return brokenJob(seed, err), 0
		}
		return serve.Job{Name: fmt.Sprintf("faulty-%d", seed), Cores: 2, Iterations: g.Iters,
			New: func() (*hinch.App, error) {
				return hinch.NewApp(g.Prog, conformance.Registry(), g.Config(hinch.BackendSim, 2))
			}}, 0
	case p < brokenFrac+faultFrac+mediaFrac: // real-backend media app
		cfg := apps.PiPConfig{W: 128, H: 64, Frames: 24, Factor: 4, Slices: 4,
			Pips: 1 + int(seed%2), Every: 4}
		v := apps.NewPiPVariant(fmt.Sprintf("pip-%d", seed), cfg)
		return serve.Job{Name: v.Name, Cores: 2, Iterations: cfg.Frames,
			New: func() (*hinch.App, error) {
				return v.NewApp(hinch.Config{Backend: hinch.BackendReal, Cores: 2})
			}}, cfg.Frames
	default: // conformance pipeline with an exact iteration oracle
		g, err := conformance.Generate(seed)
		if err != nil {
			return brokenJob(seed, err), 0
		}
		iters := g.Iters
		if g.Frames > 0 {
			iters = g.Frames + 40
		}
		return serve.Job{Name: fmt.Sprintf("conf-%d", seed), Cores: 1 + rng.Intn(3), Iterations: iters,
			New: func() (*hinch.App, error) {
				return hinch.NewApp(g.Prog, conformance.Registry(), g.Config(hinch.BackendSim, 3))
			}}, g.ExpectedIterations()
	}
}

// brokenJob surfaces a generator error as a failed session instead of
// crashing the harness: the audit still closes.
func brokenJob(seed uint64, err error) serve.Job {
	return serve.Job{Name: fmt.Sprintf("genfail-%d", seed), Cores: 1, Iterations: 1,
		New: func() (*hinch.App, error) { return nil, err }}
}
