package main

import (
	"fmt"
	"hash/crc32"
	"time"

	"xspcl"
)

// ringLen is the period of every input stream: sources serve frame
// i mod ringLen, so the reference needs ringLen frames per stream.
const ringLen = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the sink's per-frame fingerprint: CRC-32C over Y, U, V.
// The Castagnoli polynomial is hardware-accelerated, so fingerprinting
// a 720x576 frame costs tens of microseconds where the stock sink's
// FNV fold cost a quarter of the PiP frame time.
func frameCRC(f *xspcl.Frame) uint32 {
	c := crc32.Update(0, castagnoli, f.Y)
	c = crc32.Update(c, castagnoli, f.U)
	return crc32.Update(c, castagnoli, f.V)
}

// fixture is the benchmark's side of one workload: the pre-rendered
// input rings its sources serve and the per-iteration arrays its probes
// fill. One fixture serves every App a run builds; only one App runs at
// a time, and reset clears the arrays between episodes.
//
// Each array slot is written by exactly one component instance (the
// primary source writes launch, the sink writes retire and crc), and the
// engine serialises an instance across iterations, so the slots need no
// synchronisation; the benchmark reads them after Run returns.
type fixture struct {
	primary string                    // source instance whose Run start is the iteration's launch
	rings   map[uint64][]*xspcl.Frame // content seed -> ringLen pre-rendered frames
	base    time.Time

	launch []int64 // ns since base when the primary source started iteration i; 0 = never
	retire []int64 // ns since base when the sink saw iteration i; 0 = never
	crc    []uint32

	next       int // iteration the sink expects next
	outOfOrder int // sink calls that broke iteration order
}

func newFixture(primary string, n int) *fixture {
	return &fixture{
		primary: primary,
		rings:   map[uint64][]*xspcl.Frame{},
		base:    time.Now(),
		launch:  make([]int64, n),
		retire:  make([]int64, n),
		crc:     make([]uint32, n),
	}
}

func (fx *fixture) reset() {
	clear(fx.launch)
	clear(fx.retire)
	clear(fx.crc)
	fx.next, fx.outOfOrder = 0, 0
}

func (fx *fixture) now() int64 { return int64(time.Since(fx.base)) }

// addRing pre-renders the input stream with the given content seed.
func (fx *fixture) addRing(w, h int, seed uint64) []*xspcl.Frame {
	ring := xspcl.GenerateVideo(w, h, ringLen, seed)
	fx.rings[seed] = ring
	return ring
}

// registry returns the stock component library with the benchmark's
// source and sink in place of videosrc/videosink and a launch stamp on
// mjpegsrc (which already serves pre-encoded packets by reference).
// override substitutes further classes (the test's broken blend); wrap,
// when non-nil, decorates every class (the tracer).
func (fx *fixture) registry(override map[string]func() xspcl.Component, wrap func(class string, c xspcl.Component) xspcl.Component) *xspcl.Registry {
	stock := xspcl.DefaultRegistry()
	reg := xspcl.NewRegistry()
	for _, class := range stock.Classes() {
		spec, _ := stock.Lookup(class)
		switch class {
		case "videosrc":
			spec.New = func() xspcl.Component { return &source{fx: fx} }
		case "videosink":
			spec.New = func() xspcl.Component { return &sink{fx: fx} }
		case "mjpegsrc":
			inner := spec.New
			spec.New = func() xspcl.Component { return &stampedSource{fx: fx, inner: inner()} }
		}
		if mk := override[class]; mk != nil {
			spec.New = mk
		}
		if wrap != nil {
			class, mk := class, spec.New
			spec.New = func() xspcl.Component { return wrap(class, mk()) }
		}
		reg.Register(class, spec)
	}
	return reg
}

// source stands in for videosrc: it publishes frame i mod ringLen of a
// pre-rendered ring by reference, as mjpegsrc does with its packets, so
// the application's kernels, not the synthetic renderer or a copy, set
// the frame time (README.md has the measurements). Nothing downstream
// writes to a source's stream. It takes the stock class's parameters
// (width, height, frames, seed, eos).
type source struct {
	fx      *fixture
	ring    []*xspcl.Frame
	frames  int
	eos     bool
	primary bool
}

func (s *source) Init(ic *xspcl.InitContext) error {
	seed, err := ic.Uint64Param("seed", 1)
	if err != nil {
		return err
	}
	w, err := ic.RequireInt("width")
	if err != nil {
		return err
	}
	h, err := ic.RequireInt("height")
	if err != nil {
		return err
	}
	if s.frames, err = ic.IntParam("frames", 0); err != nil {
		return err
	}
	s.eos = ic.StringParam("eos", "1") != "0"
	s.ring = s.fx.rings[seed]
	if s.ring == nil || s.ring[0].W != w || s.ring[0].H != h {
		return fmt.Errorf("bench: source %s: no %dx%d ring was rendered for content seed %d", ic.Name(), w, h, seed)
	}
	s.primary = ic.Name() == s.fx.primary
	return nil
}

func (s *source) Run(rc *xspcl.RunContext) error {
	i := rc.Iteration()
	if s.primary && i < len(s.fx.launch) {
		s.fx.launch[i] = s.fx.now()
	}
	if s.frames > 0 && s.eos && i >= s.frames {
		return xspcl.EOS
	}
	rc.SetOut("out", s.ring[i%ringLen])
	return nil
}

// stampedSource adds the launch stamp to a stock source.
type stampedSource struct {
	fx      *fixture
	inner   xspcl.Component
	primary bool
}

func (s *stampedSource) Init(ic *xspcl.InitContext) error {
	s.primary = ic.Name() == s.fx.primary
	return s.inner.Init(ic)
}

func (s *stampedSource) Run(rc *xspcl.RunContext) error {
	if i := rc.Iteration(); s.primary && i < len(s.fx.launch) {
		s.fx.launch[i] = s.fx.now()
	}
	return s.inner.Run(rc)
}

// sink stands in for videosink: a retire stamp and the frame's CRC-32C
// into the fixture's per-iteration arrays.
type sink struct{ fx *fixture }

func (s *sink) Init(*xspcl.InitContext) error { return nil }

func (s *sink) Run(rc *xspcl.RunContext) error {
	f, err := xspcl.FrameOf(rc.In("in"))
	if err != nil {
		return err
	}
	fx, i := s.fx, rc.Iteration()
	if i != fx.next {
		fx.outOfOrder++
	}
	fx.next = i + 1
	if i < len(fx.retire) {
		fx.crc[i] = frameCRC(f)
		fx.retire[i] = fx.now()
	}
	return nil
}
