package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xspcl"
)

// buildsPerEpisode is how many cold builds from spec text precede each
// timed Run. Set-up samples are thereby spread over the whole run
// instead of taken in one burst, which is what made the previous
// benchmark's set-up time differ by a fifth between identical runs.
const buildsPerEpisode = 3

// windows is how many stretches of consecutive frames the retire stamps
// of a fine workload's episode are cut into. At 80000 frames of 6 us a
// stretch lasts 2 ms, shorter than the time between two slices the
// hypervisor takes, so the median stretch is one it did not touch.
const windows = 256

// runner holds what one workload's run shares between episodes.
type runner struct {
	wl      *workload
	n       int // frames per episode
	spec    string
	fx      *fixture
	configs []renderer
	refs    [][]uint32 // refs[config][i mod period]
	cfg     xspcl.Config
	workers int
	reg     *xspcl.Registry
	// tr and treg exist only in a -trace 1 run: the decorated registry
	// the traced episodes build from.
	tr   *tracer
	treg *xspcl.Registry

	probe *hostProbe

	inputGen time.Duration
}

// benchWorkers is the load the benchmark puts on the engine: as many
// worker goroutines as the host has processors, at most 4.
func benchWorkers() int { return min(runtime.NumCPU(), 4) }

// newRunner runs the untimed input phase: input rings, encoded
// packets, reference fingerprints.
func newRunner(wl *workload, seed uint64, traced bool, override map[string]func() xspcl.Component) (*runner, error) {
	n := wl.n
	start := time.Now()
	r := &runner{
		wl:      wl,
		n:       n,
		spec:    wl.spec(seed, n),
		fx:      newFixture(wl.primary, n),
		workers: benchWorkers(),
	}
	r.cfg = xspcl.Config{Backend: xspcl.BackendReal, Cores: r.workers}
	r.probe = newHostProbe(r.workers)
	var err error
	if r.configs, err = wl.inputs(r.fx, seed); err != nil {
		return nil, err
	}
	for _, c := range r.configs {
		crcs, err := referenceCRCs(c, min(n, ringLen))
		if err != nil {
			return nil, err
		}
		r.refs = append(r.refs, crcs)
	}
	r.reg = r.fx.registry(override, nil)
	if traced {
		r.tr = newTracer(r.fx, n)
		r.treg = r.fx.registry(override, r.tr.wrap)
	}
	r.inputGen = time.Since(start)
	return r, nil
}

// episode is one session: build, run, verify, tear down.
type episode struct {
	setup [buildsPerEpisode]float64 // s, spec text -> App ready
	wall  float64                   // s, around Run
	cpu   float64                   // s, process user+sys across Run
	// Processor time the hypervisor took from this machine while the
	// builds and while Run were being timed, in CPU-seconds.
	setupSteal, runSteal float64
	// Seconds per chunk of the host speed probe, the mean of a burst
	// before Run and one after.
	probe  float64
	rep    *xspcl.Report
	err    error // build or Run failure: every frame of the episode failed
	failed int   // frames wrong, missing or out of order

	// Seconds per frame as the median over the episode's windows (see
	// windows); only a fine workload's episodes have it.
	windowed               float64
	latP50, latP99, latMax float64 // ms, sink retire - source launch
	firstFrame, drain      float64 // ms, Run start -> first retire; last launch -> Run return
	duty                   float64 // share of frames in the second configuration; 0 when there is one
	reconfGap              float64 // ms, median sink gap across a switch minus the median gap; 0 without switches
	mallocs, allocBytes    uint64
	gcCycles               uint32
	busy                   map[string]int64 // ns per class (traced episodes)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad pointer or selector
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenCPU returns the processor time the hypervisor has given to
// other guests while this machine wanted to run, summed over its
// processors since boot, in seconds: the steal column of /proc/stat,
// which counts hundredths of a second. It reads 0 on a host that does
// not report it, which turns the zero-steal estimates into plain
// medians.
func stolenCPU() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

func (r *runner) episode(traced bool) *episode {
	ep := &episode{}
	reg := r.reg
	if traced {
		reg = r.treg
	}
	var app *xspcl.App
	steal0 := stolenCPU()
	for b := range ep.setup {
		t0 := time.Now()
		prog, err := xspcl.Load(r.spec)
		if err == nil {
			app, err = xspcl.NewApp(prog, reg, r.cfg)
		}
		ep.setup[b] = time.Since(t0).Seconds()
		if err != nil {
			ep.err = fmt.Errorf("build: %w", err)
			ep.failed = r.n
			return ep
		}
	}
	ep.setupSteal = stolenCPU() - steal0
	r.fx.reset()
	if traced {
		r.tr.reset()
	}
	runtime.GC()
	before := r.probe.burst()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 = stolenCPU()
	cpu0 := cpuTime()
	t0 := r.fx.now()
	rep, err := app.Run(r.n)
	t1 := r.fx.now()
	cpu1 := cpuTime()
	ep.runSteal = stolenCPU() - steal0
	runtime.ReadMemStats(&m1)
	ep.probe = (before + r.probe.burst()) / 2

	ep.wall = float64(t1-t0) / 1e9
	ep.cpu = (cpu1 - cpu0).Seconds()
	ep.mallocs = m1.Mallocs - m0.Mallocs
	ep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ep.gcCycles = m1.NumGC - m0.NumGC
	if err == nil && rep.Iterations != r.n {
		err = fmt.Errorf("processed %d of %d iterations", rep.Iterations, r.n)
	}
	if err != nil {
		ep.err = fmt.Errorf("run: %w", err)
		ep.failed = r.n
		return ep
	}
	ep.rep = rep
	r.verify(ep, t0, t1)
	if traced {
		ep.busy = r.tr.busy()
	}
	return ep
}

// verify checks every frame of the episode against the reference and
// derives the per-frame timings.
func (r *runner) verify(ep *episode, t0, t1 int64) {
	fx := r.fx
	last := len(r.refs) - 1
	config := make([]int8, r.n) // which reference frame i matched; -1 = none
	inLast := 0
	for i := 0; i < r.n; i++ {
		config[i] = -1
		if fx.launch[i] == 0 || fx.retire[i] == 0 {
			ep.failed++
			continue
		}
		for c := last; c >= 0; c-- {
			if fx.crc[i] == r.refs[c][i%len(r.refs[c])] {
				config[i] = int8(c)
				break
			}
		}
		if config[i] < 0 {
			ep.failed++
		} else if int(config[i]) == last {
			inLast++
		}
	}
	if fx.outOfOrder > 0 && ep.failed < fx.outOfOrder {
		ep.failed = fx.outOfOrder
	}
	if ep.failed > 0 {
		return
	}
	if last > 0 {
		ep.duty = float64(inLast) / float64(r.n)
	}

	lat := make([]float64, r.n)
	for i := range lat {
		lat[i] = float64(fx.retire[i]-fx.launch[i]) / 1e6
	}
	sort.Float64s(lat)
	ep.latP50, ep.latP99, ep.latMax = quantile(lat, 0.5), quantile(lat, 0.99), lat[r.n-1]
	ep.firstFrame = float64(fx.retire[0]-t0) / 1e6
	ep.drain = float64(t1-fx.launch[r.n-1]) / 1e6
	if r.wl.fine {
		per := make([]float64, min(windows, r.n-1))
		for w := range per {
			lo, hi := w*(r.n-1)/len(per), (w+1)*(r.n-1)/len(per)
			per[w] = float64(fx.retire[hi]-fx.retire[lo]) / 1e9 / float64(hi-lo)
		}
		ep.windowed = median(per)
	}

	var gaps, switchGaps []float64
	for i := 1; i < r.n; i++ {
		gap := float64(fx.retire[i]-fx.retire[i-1]) / 1e6
		gaps = append(gaps, gap)
		if config[i] != config[i-1] {
			switchGaps = append(switchGaps, gap)
		}
	}
	if len(switchGaps) > 0 {
		ep.reconfGap = median(switchGaps) - median(gaps)
	}
}
