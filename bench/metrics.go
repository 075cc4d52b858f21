package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric. The lists below are the
// benchmark's output contract: BENCHMARK.json repeats them, and
// bench_test.go checks the two agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a -trace 0 run reports, for every workload.
var endToEnd = []metricDef{
	{"frames_per_s", "1/s", "higher"},
	{"cpu_ms_per_frame", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is what a -trace 1 run reports, for every workload. A layer
// a workload does not use reads 0 there (blur kernels' busy time on
// pip12, reconfigurations on the static three); README.md says which
// end-to-end metric each is expected to move, and on which workload.
var perLayer = []metricDef{
	// Set-up path, direct timed calls.
	{"xspcl.load_us", "us", "lower"},
	{"analysis.analyze_us", "us", "lower"},
	{"graph.plan_us", "us", "lower"},
	{"graph.tasks", "count", "lower"},
	{"hinch.newapp_us", "us", "lower"},
	// Kernels, direct timed calls at the applications' geometries.
	{"kernels.downscale4_mb_s", "MB/s", "higher"},
	{"kernels.blend_mb_s", "MB/s", "higher"},
	{"kernels.copyrows_mb_s", "MB/s", "higher"},
	{"kernels.blurh5_mb_s", "MB/s", "higher"},
	{"kernels.blurv5_mb_s", "MB/s", "higher"},
	{"mjpeg.entropy_decode_mb_s", "MB/s", "higher"},
	{"mjpeg.idct_mpix_s", "Mpix/s", "higher"},
	{"mjpeg.decode_frame_ms", "ms", "lower"},
	// Component busy time from the spans of the traced episodes.
	{"components.downscale.busy_us_per_frame", "us", "lower"},
	{"components.blend.busy_us_per_frame", "us", "lower"},
	{"components.copyplane.busy_us_per_frame", "us", "lower"},
	{"components.blurh.busy_us_per_frame", "us", "lower"},
	{"components.blurv.busy_us_per_frame", "us", "lower"},
	{"components.jpegdecode.busy_us_per_frame", "us", "lower"},
	{"components.idct.busy_us_per_frame", "us", "lower"},
	{"bench.src.busy_us_per_frame", "us", "lower"},
	{"bench.sink.busy_us_per_frame", "us", "lower"},
	// Engine: what is left of wall x workers after component busy time,
	// and the scheduler's own counters.
	{"hinch.nonkernel_us_per_job", "us", "lower"},
	{"hinch.component_busy_frac", "frac", "higher"},
	{"hinch.jobs_per_s", "1/s", "higher"},
	{"graph.jobs_per_frame", "count", "lower"},
	{"hinch.steals_per_kjob", "count", "lower"},
	{"hinch.steal_attempts_per_kjob", "count", "lower"},
	{"hinch.parks_per_kframe", "count", "lower"},
	{"hinch.wakes_per_kframe", "count", "lower"},
	{"hinch.batches_per_kframe", "count", "lower"},
	{"hinch.chained_frac", "frac", "higher"},
	{"hinch.allocs_per_frame", "count", "lower"},
	{"hinch.alloc_bytes_per_frame", "B", "lower"},
	{"hinch.gc_cycles_per_kframe", "count", "lower"},
	// Reconfiguration.
	{"hinch.reconfigs_per_kframe", "count", "higher"},
	{"hinch.reconfig_gap_p50_ms", "ms", "lower"},
	{"hinch.pip2_duty_frac", "frac", "higher"},
	// Pipeline fill and drain, iteration latency, tails and spread.
	{"hinch.first_frame_ms", "ms", "lower"},
	{"hinch.drain_ms", "ms", "lower"},
	{"hinch.iter_latency_p50_ms", "ms", "lower"},
	{"hinch.iter_latency_p99_ms", "ms", "lower"},
	{"hinch.iter_latency_max_ms", "ms", "lower"},
	{"hinch.frames_per_s_p90", "1/s", "higher"},
	{"hinch.frames_per_s_iqr_pct", "%", "lower"},
	// The frozen sequential reference and the simulated tile.
	{"seq.frames_per_s", "1/s", "higher"},
	{"seq.speedup", "x", "higher"},
	{"sim.cycles_per_frame_c1", "cycles", "lower"},
	{"sim.speedup_c2", "x", "higher"},
	{"sim.speedup_c4", "x", "higher"},
	{"sim.speedup_c8", "x", "higher"},
	{"sim.wall_us_per_job", "us", "lower"},
	// The benchmark itself and the process.
	{"bench.input_gen_s", "s", "lower"},
	{"hinch.trace_overhead_pct", "%", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.cpu_util", "frac", "higher"},
	{"proc.steal_pct", "%", "lower"},
	{"proc.host_speed", "x", "higher"},
	{"proc.workers", "count", "higher"},
}

// result is one run of one workload: what the last line of standard
// output says.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult checks that values holds exactly the metrics of defs and
// attaches their units.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (*result, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("bench: computed %d metrics, the contract lists %d", len(values), len(defs))
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print lists the metrics in contract order.
func (res *result) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  frames attempted %d, failed %d\n", res.Attempted, res.Failed)
}
