package main

import (
	"fmt"
	"regexp"
	"strconv"

	"xspcl"
	"xspcl/internal/apps"
	"xspcl/internal/components"
)

// A workload is one application at one geometry: the spec text a
// deployment would load, the inputs its sources serve and the reference
// its output is judged against. n is frozen here and in README.md: every
// episode of a workload does the same work on every commit.
type workload struct {
	name string
	why  string
	n    int // frames per episode
	// fine marks a workload whose end-to-end figures are plain medians
	// (README.md, "How a run turns episodes into one figure"): its
	// iterations are so short that a median over them, or over windows
	// of them, does not see the slices the hypervisor takes, and its
	// workers are idle so much of the time that neither a stolen second
	// nor a slower processor costs it in proportion, which is what the
	// corrections the other workloads get assume.
	fine bool
	// simFrames is the iteration count of the sim-backend runs behind
	// the sim.* metrics (the simulator executes the real kernels too, so
	// the JPEG workload gets fewer).
	simFrames int
	primary   string // source instance that stamps an iteration's launch
	// spec returns the spec text for -seed whose sources serve frames
	// frames before ending the stream.
	spec func(seed uint64, frames int) string
	// inputs renders the input streams for -seed into fx and returns one
	// renderer per configuration the output may legally be in (two for
	// the reconfiguring workload, one otherwise).
	inputs func(fx *fixture, seed uint64) ([]renderer, error)
}

func pip12Config(frames int) apps.PiPConfig {
	cfg := apps.DefaultPiP(1)
	cfg.Reconfig = true
	cfg.Frames = frames
	return cfg
}

// jpip2Config sets Frames, which for mjpegsrc is the number of distinct
// encoded frames per stream, to the episode length: no run is longer,
// and encoding dominates the input phase.
func jpip2Config() apps.JPiPConfig {
	cfg := apps.DefaultJPiP(2)
	cfg.Frames = jpip2Frames
	return cfg
}

const jpip2Frames = 8

func blur5Config(frames int) apps.BlurConfig {
	cfg := apps.DefaultBlur(5)
	cfg.Frames = frames
	return cfg
}

var workloads = []workload{
	{
		name: "pip12",
		why:  "PiP 720x576 toggling its second inset every 12 frames: memory-bound kernels, and the only workload that runs managers, options and the reconfiguration protocol",
		n:    720, simFrames: 24, primary: "bgsrc",
		spec: func(seed uint64, frames int) string {
			return reseed(apps.PiPSpec(pip12Config(frames)), seed)
		},
		inputs: func(fx *fixture, seed uint64) ([]renderer, error) {
			cfg := pip12Config(0)
			bg := fx.addRing(cfg.W, cfg.H, contentSeed(seed, 1))
			p1 := fx.addRing(cfg.W, cfg.H, contentSeed(seed, 2))
			p2 := fx.addRing(cfg.W, cfg.H, contentSeed(seed, 3))
			return []renderer{
				refPiP(bg, [][]*xspcl.Frame{p1}, cfg.Factor),
				refPiP(bg, [][]*xspcl.Frame{p1, p2}, cfg.Factor),
			}, nil
		},
	},
	{
		name: "jpip2",
		why:  "JPiP 1280x720 with two insets: compute-bound coarse jobs (IDCT, entropy decode) in short episodes, so mjpeg does the work and pipeline fill, drain and the large build show",
		n:    jpip2Frames, simFrames: 2, primary: "bgsrc",
		spec: func(seed uint64, _ int) string {
			return reseed(apps.JPiPSpec(jpip2Config()), seed)
		},
		inputs: func(_ *fixture, seed uint64) ([]renderer, error) {
			cfg := jpip2Config()
			var pk [3][][]byte
			for k := range pk {
				var err error
				// Also fills the cache mjpegsrc.Init reads, so no build encodes.
				pk[k], err = components.EncodedSequence(cfg.W, cfg.H, cfg.Frames, cfg.Quality, contentSeed(seed, k+1))
				if err != nil {
					return nil, err
				}
			}
			return []renderer{refJPiP(pk[0], pk[1:], cfg.Factor)}, nil
		},
	},
	{
		name: "blur5",
		why:  "Blur 5x5 on 360x288 in 9 crossdep slices: fine-grained jobs with neighbour dependencies, so blur kernels and engine/stream synchronisation share the time",
		n:    1680, simFrames: 24, primary: "src",
		spec: func(seed uint64, frames int) string {
			return reseed(apps.BlurSpec(blur5Config(frames)), seed)
		},
		inputs: func(fx *fixture, seed uint64) ([]renderer, error) {
			cfg := blur5Config(0)
			in := fx.addRing(cfg.W, cfg.H, contentSeed(seed, 1))
			return []renderer{refBlur(in, cfg.Taps)}, nil
		},
	},
	{
		name: "sched",
		why:  "64x48 source -> 16-slice copyplane -> sink: microsecond iterations, so dispatch, deques, steals, parks, wakes, stream slots and pooling are the time and kernels are not",
		n:    80000, simFrames: 24, primary: "src",
		fine: true,
		spec: func(seed uint64, frames int) string {
			return reseed(fmt.Sprintf(schedSpec, frames), seed)
		},
		inputs: func(fx *fixture, seed uint64) ([]renderer, error) {
			return []renderer{refCopyY(fx.addRing(64, 48, contentSeed(seed, 1)))}, nil
		},
	},
}

// schedSpec is the scheduler-stress graph of the repo's
// BenchmarkSchedulerThroughput, as spec text.
const schedSpec = `<xspcl name="sched">
  <streams>
    <stream name="v" type="frame" width="64" height="48"/>
    <stream name="v2" type="frame" width="64" height="48"/>
  </streams>
  <procedure name="main">
    <body>
      <component name="src" class="videosrc">
        <stream port="out" name="v"/>
        <init name="width" value="64"/>
        <init name="height" value="48"/>
        <init name="frames" value="%d"/>
        <init name="seed" value="1"/>
      </component>
      <parallel shape="slice" n="16"><parblock>
        <component name="c" class="copyplane">
          <stream port="in" name="v"/>
          <stream port="out" name="v2"/>
        </component>
      </parblock></parallel>
      <component name="snk" class="videosink">
        <stream port="in" name="v2"/>
      </component>
    </body>
  </procedure>
</xspcl>
`

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// contentSeed derives the content seed of input stream k (1..3) from
// the benchmark seed.
func contentSeed(seed uint64, k int) uint64 { return seed<<4 | uint64(k) }

var seedParam = regexp.MustCompile(`(<init name="seed" value=")(\d+)("/>)`)

// reseed rewrites the stream numbers the application specs carry as
// source seeds (1, 2, 3) into content seeds for -seed, so the program
// under test sees the seed only through its inputs.
func reseed(spec string, seed uint64) string {
	return seedParam.ReplaceAllStringFunc(spec, func(m string) string {
		parts := seedParam.FindStringSubmatch(m)
		k, _ := strconv.Atoi(parts[2])
		return parts[1] + strconv.FormatUint(contentSeed(seed, k), 10) + parts[3]
	})
}
