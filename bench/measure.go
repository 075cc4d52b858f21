package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"xspcl"
)

// options is what the command line asks of one workload's run.
type options struct {
	seed    uint64
	seconds float64 // how long to keep starting timed episodes
	trace   bool
	outDir  string // where the span file goes
	// override substitutes component classes (tests register a broken blend).
	override map[string]func() xspcl.Component
}

// minEpisodes keeps the medians meaningful on a host so slow that the
// time budget fits fewer.
const minEpisodes = 5

// more reports whether another timed episode (or pair) is due.
func (o *options) more(done int, start time.Time, share float64) bool {
	return done < minEpisodes || time.Since(start).Seconds() < o.seconds*share
}

// pick extracts one figure per successful episode.
func pick(eps []*episode, f func(*episode) float64) []float64 {
	var v []float64
	for _, e := range eps {
		if e.err == nil && e.failed == 0 {
			v = append(v, f(e))
		}
	}
	return v
}

func (e *episode) fps(n int) float64 { return float64(n) / e.wall }

// tally sums frames attempted and failed, reporting failed episodes.
func tally(w io.Writer, n int, eps []*episode) (attempted, failed int) {
	for i, e := range eps {
		attempted += n
		failed += e.failed
		if e.err != nil {
			fmt.Fprintf(w, "  episode %d: %v\n", i, e.err)
		} else if e.failed > 0 {
			fmt.Fprintf(w, "  episode %d: %d of %d frames wrong, missing or out of order\n", i, e.failed, n)
		}
	}
	return attempted, failed
}

// measure runs one workload: untimed input phase, one discarded warm-up
// episode, then timed episodes; with o.trace, untraced and traced
// episodes alternate and the layer probes follow.
func measure(w io.Writer, wl *workload, o *options) (*result, error) {
	r, err := newRunner(wl, o.seed, o.trace, o.override)
	if err != nil {
		return nil, fmt.Errorf("%s: input phase: %w", wl.name, err)
	}
	all := []*episode{r.episode(false)} // warm-up: verified, not timed
	var untraced, traced []*episode
	start := time.Now()
	if !o.trace {
		for o.more(len(untraced), start, 1) {
			untraced = append(untraced, r.episode(false))
		}
	} else {
		// Half the time goes to episodes; the probes need the rest.
		all = append(all, r.episode(true))
		for o.more(len(traced), start, 0.5) {
			untraced = append(untraced, r.episode(false))
			traced = append(traced, r.episode(true))
		}
	}
	all = append(append(all, untraced...), traced...)
	fmt.Fprintf(w, "%s: %d+%d episodes x %d frames, %d workers, seed %d\n", wl.name, len(untraced), len(traced), wl.n, r.workers, o.seed)
	attempted, failed := tally(w, wl.n, all)

	values := map[string]float64{}
	var plain map[string]float64
	defs := endToEnd
	if len(pick(untraced, func(*episode) float64 { return 0 })) == 0 {
		return nil, fmt.Errorf("%s: no episode succeeded (%d of %d frames failed)", wl.name, failed, attempted)
	}
	if !o.trace {
		plain = r.endToEnd(w, values, untraced)
	} else {
		defs = perLayer
		if len(pick(traced, func(*episode) float64 { return 0 })) == 0 {
			return nil, fmt.Errorf("%s: no traced episode succeeded", wl.name)
		}
		// The fixture still holds the last traced episode.
		path := filepath.Join(o.outDir, wl.name+".trace.json")
		if err := r.tr.writeFile(path, wl.name); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  spans written to %s\n", path)
		if err := r.perLayer(values, untraced, traced, o.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	res, err := newResult(defs, values, attempted, failed)
	if err != nil {
		return nil, err
	}
	res.print(w, defs)
	if plain != nil {
		// What the run would have reported without the corrections, for
		// repeat.sh and -compare: the line before the result line.
		line, err := json.Marshal(plain)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "plain %s\n", line)
	}
	return res, nil
}

// endToEnd reduces the timed episodes to the end-to-end metrics in m
// and returns the same ones as plain medians over the episodes.
//
// A shared host disturbs wall-clock figures in two ways that a plain
// median follows, by a fifth to a third between two runs of one binary,
// and for the workloads that keep their workers busy the benchmark
// takes both out:
//
//   - the hypervisor takes processors away for minutes at a time and
//     reports how long (stolenCPU); within a run the cost of a stolen
//     second is close to constant, so each metric is its per-episode
//     figure extrapolated to zero steal (zeroSteal);
//   - a running processor is faster or slower depending on the other
//     guests (hostspeed.go); every timing is scaled to the nominal
//     speed by the run's mean probe time.
//
// A fine workload reports the plain medians (workload.fine says why),
// with the time per frame taken over windows instead of the episode.
func (r *runner) endToEnd(w io.Writer, m map[string]float64, eps []*episode) (plain map[string]float64) {
	n := float64(r.n)
	perFrame := func(e *episode) float64 { return e.wall / n }
	if r.wl.fine {
		perFrame = func(e *episode) float64 { return e.windowed }
	}
	runSteal := func(e *episode) float64 { return e.runSteal }
	speed := hostSpeed(eps)
	plain = map[string]float64{}
	for _, f := range []struct {
		name, label string
		steal, y    func(*episode) float64
	}{
		// Throughput is not linear in steal; the time per frame is.
		{"frames_per_s", "(s per frame)", runSteal, perFrame},
		{"cpu_ms_per_frame", "cpu_ms_per_frame", runSteal, func(e *episode) float64 { return e.cpu * 1e3 / n }},
		// A set-up sample is the mean of the episode's builds, the first
		// of which finds the caches as Run left them and the others warm.
		{"setup_s", "setup_s", func(e *episode) float64 { return e.setupSteal }, func(e *episode) float64 { return mean(e.setup[:]) }},
	} {
		y := pick(eps, f.y)
		s := sorted(y)
		plain[f.name] = quantile(s, 0.5)
		m[f.name] = plain[f.name]
		fmt.Fprintf(w, "  %-20s over %3d episodes: q1 %.6g, median %.6g, q3 %.6g", f.label, len(y), quantile(s, 0.25), plain[f.name], quantile(s, 0.75))
		if !r.wl.fine {
			at0, slope := zeroSteal(pick(eps, f.steal), y)
			m[f.name] = at0 * speed
			fmt.Fprintf(w, "; %+.4g per stolen CPU-second; at zero steal %.6g; at nominal host speed %.6g", slope, at0, m[f.name])
		}
		fmt.Fprintln(w)
	}
	for _, v := range []map[string]float64{m, plain} {
		v["frames_per_s"] = 1 / v["frames_per_s"] // was seconds per frame
	}
	fmt.Fprintf(w, "  the hypervisor stole %.1f%% of %d processors during the timed runs; host speed %.3f of nominal\n",
		100*stolenShare(eps), runtime.NumCPU(), speed)
	return plain
}

// hostSpeed is how fast the host speed probe ran around the episodes'
// timed runs, as a multiple of the nominal speed.
func hostSpeed(eps []*episode) float64 {
	return hostSpeedNominal / mean(pick(eps, func(e *episode) float64 { return e.probe }))
}

// stolenShare is the share of the machine's processor time the
// hypervisor took during the episodes' timed runs.
func stolenShare(eps []*episode) float64 {
	var stolen, wall float64
	for _, e := range eps {
		stolen += e.runSteal
		wall += e.wall
	}
	return stolen / (wall * float64(runtime.NumCPU()))
}

// srcClasses and sinkClass are the fixture's share of the spans.
var srcClasses = []string{"videosrc", "mjpegsrc"}

const sinkClass = "videosink"

// maxFixtureShare is how much of the component busy time of pip12 and
// blur5 the benchmark's own source and sink may take before the traced
// run fails. The stock videosrc and videosink took 0.70 and 0.45.
const maxFixtureShare = 0.15

func (r *runner) perLayer(m map[string]float64, plain, traced []*episode, seed uint64) error {
	n, kn := float64(r.n), float64(r.n)/1e3
	workers := float64(r.workers)
	med := func(eps []*episode, f func(*episode) float64) float64 { return median(pick(eps, f)) }

	// Spans: busy time per class, and what the engine adds around it.
	sumBusy := func(e *episode) (total float64) {
		for _, ns := range e.busy {
			total += float64(ns)
		}
		return total
	}
	classBusy := func(classes ...string) float64 {
		return med(traced, func(e *episode) (us float64) {
			for _, c := range classes {
				us += float64(e.busy[c]) / 1e3
			}
			return us / n
		})
	}
	for _, c := range []string{"downscale", "blend", "copyplane", "blurh", "blurv", "jpegdecode", "idct"} {
		m["components."+c+".busy_us_per_frame"] = classBusy(c)
	}
	m["bench.src.busy_us_per_frame"] = classBusy(srcClasses...)
	m["bench.sink.busy_us_per_frame"] = classBusy(sinkClass)
	m["hinch.nonkernel_us_per_job"] = med(traced, func(e *episode) float64 {
		return (e.wall*workers*1e9 - sumBusy(e)) / 1e3 / float64(e.rep.Jobs)
	})
	m["hinch.component_busy_frac"] = med(traced, func(e *episode) float64 {
		return sumBusy(e) / (e.wall * workers * 1e9)
	})
	// Fixture honesty: the source and sink must not be what the
	// application workloads measure.
	if r.wl.name == "pip12" || r.wl.name == "blur5" {
		share := med(traced, func(e *episode) float64 {
			fixture := e.busy[sinkClass]
			for _, c := range srcClasses {
				fixture += e.busy[c]
			}
			return float64(fixture) / sumBusy(e)
		})
		if share >= maxFixtureShare {
			return fmt.Errorf("fixture honesty: source and sink take %.1f%% of component busy time, limit %.0f%%", share*100, maxFixtureShare*100)
		}
	}

	// Engine counters and timings from the untraced episodes.
	jobs := func(e *episode) float64 { return float64(e.rep.Jobs) }
	perKJob := func(f func(*xspcl.Report) int64) float64 {
		return med(plain, func(e *episode) float64 { return float64(f(e.rep)) * 1e3 / jobs(e) })
	}
	perKFrame := func(f func(*episode) float64) float64 {
		return med(plain, func(e *episode) float64 { return f(e) / kn })
	}
	fps := pick(plain, func(e *episode) float64 { return e.fps(r.n) })
	sfps := sorted(fps)
	m["hinch.jobs_per_s"] = med(plain, func(e *episode) float64 { return jobs(e) / e.wall })
	m["graph.jobs_per_frame"] = med(plain, func(e *episode) float64 { return jobs(e) / n })
	m["hinch.steals_per_kjob"] = perKJob(func(r *xspcl.Report) int64 { return r.Sched.Steals })
	m["hinch.steal_attempts_per_kjob"] = perKJob(func(r *xspcl.Report) int64 { return r.Sched.StealAttempts })
	m["hinch.parks_per_kframe"] = perKFrame(func(e *episode) float64 { return float64(e.rep.Sched.Parks) })
	m["hinch.wakes_per_kframe"] = perKFrame(func(e *episode) float64 { return float64(e.rep.Sched.Wakes) })
	m["hinch.batches_per_kframe"] = perKFrame(func(e *episode) float64 { return float64(e.rep.Sched.Batches) })
	m["hinch.chained_frac"] = med(plain, func(e *episode) float64 { return float64(e.rep.Sched.Chained) / jobs(e) })
	m["hinch.allocs_per_frame"] = med(plain, func(e *episode) float64 { return float64(e.mallocs) / n })
	m["hinch.alloc_bytes_per_frame"] = med(plain, func(e *episode) float64 { return float64(e.allocBytes) / n })
	m["hinch.gc_cycles_per_kframe"] = perKFrame(func(e *episode) float64 { return float64(e.gcCycles) })
	m["hinch.reconfigs_per_kframe"] = perKFrame(func(e *episode) float64 { return float64(e.rep.Reconfigs) })
	m["hinch.reconfig_gap_p50_ms"] = med(plain, func(e *episode) float64 { return e.reconfGap })
	m["hinch.pip2_duty_frac"] = med(plain, func(e *episode) float64 { return e.duty })
	m["hinch.first_frame_ms"] = med(plain, func(e *episode) float64 { return e.firstFrame })
	m["hinch.drain_ms"] = med(plain, func(e *episode) float64 { return e.drain })
	m["hinch.iter_latency_p50_ms"] = med(plain, func(e *episode) float64 { return e.latP50 })
	m["hinch.iter_latency_p99_ms"] = med(plain, func(e *episode) float64 { return e.latP99 })
	m["hinch.iter_latency_max_ms"] = quantile(sorted(pick(plain, func(e *episode) float64 { return e.latMax })), 1)
	m["hinch.frames_per_s_p90"] = quantile(sfps, 0.9)
	m["hinch.frames_per_s_iqr_pct"] = 100 * (quantile(sfps, 0.75) - quantile(sfps, 0.25)) / quantile(sfps, 0.5)
	tfps := med(traced, func(e *episode) float64 { return e.fps(r.n) })
	m["hinch.trace_overhead_pct"] = 100 * (median(fps) - tfps) / median(fps)
	m["proc.cpu_util"] = med(plain, func(e *episode) float64 { return e.cpu / (e.wall * workers) })
	m["proc.steal_pct"] = 100 * stolenShare(plain)
	m["proc.host_speed"] = hostSpeed(plain)
	m["proc.workers"] = workers
	m["bench.input_gen_s"] = r.inputGen.Seconds()

	// The frozen reference on one thread, weighted by the share of
	// frames each configuration produced.
	duty := m["hinch.pip2_duty_frac"]
	var seqFrame float64
	for c, render := range r.configs {
		s, err := seqFrameSeconds(render, len(r.refs[c]))
		if err != nil {
			return err
		}
		share := 1.0
		if len(r.configs) == 2 {
			share = []float64{1 - duty, duty}[c]
		}
		seqFrame += share * s
	}
	m["seq.frames_per_s"] = 1 / seqFrame
	m["seq.speedup"] = median(fps) * seqFrame

	if err := r.setupLayers(m); err != nil {
		return err
	}
	if err := kernelLayers(m, seed); err != nil {
		return err
	}
	if err := r.simLayers(m, seed); err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return nil
}
