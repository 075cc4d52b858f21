package components

import (
	"math"
	"strings"
	"sync"
	"testing"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/kernels"
	"xspcl/internal/media"
	"xspcl/internal/mjpeg"
)

// runProg loads and runs a program on the sim backend with the default
// registry, returning the app for component inspection.
func runProg(t *testing.T, prog *graph.Program, frames, cores int) *hinch.App {
	t.Helper()
	app, err := hinch.NewApp(prog, DefaultRegistry(), hinch.Config{
		Backend: hinch.BackendSim, Cores: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(frames); err != nil {
		t.Fatal(err)
	}
	return app
}

// srcSinkProg wires videosrc -> sink with a collecting sink.
func srcSinkProg(w, h, frames int, seed string) *graph.Program {
	b := graph.NewBuilder("srcsink")
	b.FrameStream("v", w, h)
	b.Body(
		b.Component("src", "videosrc", graph.Ports{"out": "v"}, graph.Params{
			"width": itoa(w), "height": itoa(h), "frames": itoa(frames), "seed": seed}),
		b.Component("snk", "videosink", graph.Ports{"in": "v"}, graph.Params{"collect": "1"}),
	)
	return b.MustProgram()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestVideoSourceProducesGeneratorFrames(t *testing.T) {
	app := runProg(t, srcSinkProg(64, 48, 5, "7"), 5, 2)
	sink := app.Component("snk").(*VideoSink)
	want := media.GenerateSequence(64, 48, 5, 7)
	got := sink.Frames()
	if len(got) != 5 {
		t.Fatalf("%d frames", len(got))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("frame %d differs from generator output", i)
		}
	}
}

func TestVideoSourceEOS(t *testing.T) {
	app, err := hinch.NewApp(srcSinkProg(32, 32, 3, "1"), DefaultRegistry(), hinch.Config{Backend: hinch.BackendSim})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(-1) // run until EOS
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 3 {
		t.Fatalf("iterations %d, want 3", rep.Iterations)
	}
}

func TestVideoSourceLoopsWithoutEOS(t *testing.T) {
	b := graph.NewBuilder("loop")
	b.FrameStream("v", 32, 32)
	b.Body(
		b.Component("src", "videosrc", graph.Ports{"out": "v"}, graph.Params{
			"width": "32", "height": "32", "frames": "2", "eos": "0"}),
		b.Component("snk", "videosink", graph.Ports{"in": "v"}, graph.Params{"collect": "1"}),
	)
	app := runProg(t, b.MustProgram(), 5, 1)
	frames := app.Component("snk").(*VideoSink).Frames()
	if len(frames) != 5 {
		t.Fatalf("%d frames", len(frames))
	}
	if !frames[0].Equal(frames[2]) || !frames[1].Equal(frames[3]) {
		t.Fatal("source did not loop its 2-frame content")
	}
}

func TestVideoSourceMissingParams(t *testing.T) {
	// On an untyped stream nothing grounds the source's geometry, so
	// the missing width is still a hard Init error.
	b := graph.NewBuilder("bad")
	b.Stream("v")
	b.Body(
		b.Component("src", "videosrc", graph.Ports{"out": "v"}, nil), // no width/height
		b.Component("snk", "videosink", graph.Ports{"in": "v"}, nil),
	)
	_, err := hinch.NewApp(b.MustProgram(), DefaultRegistry(), hinch.Config{Backend: hinch.BackendSim})
	if err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("err = %v", err)
	}
}

func TestVideoSourceParamsInferred(t *testing.T) {
	// On a typed 32x32 frame stream the format solver grounds the
	// source's where-bound width/height, so omitting them is fine.
	b := graph.NewBuilder("inferred")
	b.FrameStream("v", 32, 32)
	b.Body(
		b.Component("src", "videosrc", graph.Ports{"out": "v"}, graph.Params{"frames": "2", "eos": "0"}),
		b.Component("snk", "videosink", graph.Ports{"in": "v"}, graph.Params{"collect": "1"}),
	)
	app := runProg(t, b.MustProgram(), 2, 1)
	frames := app.Component("snk").(*VideoSink).Frames()
	if len(frames) != 2 {
		t.Fatalf("%d frames", len(frames))
	}
	if frames[0].W != 32 || frames[0].H != 32 {
		t.Fatalf("inferred geometry %dx%d, want 32x32", frames[0].W, frames[0].H)
	}
}

// decodeProg wires mjpegsrc -> jpegdecode -> idct(x3) -> sink.
func decodeProg(w, h, frames, slices int) *graph.Program {
	b := graph.NewBuilder("decode")
	b.PacketStream("pk", w*h/4)
	b.CoeffStream("cf", w, h)
	b.FrameStream("f", w, h)
	idcts := make([]*graph.Node, 3)
	for i, plane := range []string{"Y", "U", "V"} {
		idcts[i] = b.Parallel(graph.ShapeSlice, slices,
			b.Component("idct"+plane, "idct", graph.Ports{"in": "cf", "out": "f"},
				graph.Params{"plane": plane}),
		)
	}
	b.Body(
		b.Component("src", "mjpegsrc", graph.Ports{"out": "pk"}, graph.Params{
			"width": itoa(w), "height": itoa(h), "frames": itoa(frames), "quality": "75", "seed": "3"}),
		b.Component("dec", "jpegdecode", graph.Ports{"in": "pk", "out": "cf"},
			graph.Params{"width": itoa(w), "height": itoa(h)}),
		b.Parallel(graph.ShapeTask, 0, idcts...),
		b.Component("snk", "videosink", graph.Ports{"in": "f"}, graph.Params{"collect": "1"}),
	)
	return b.MustProgram()
}

func TestStagedDecodePipelineMatchesFusedDecoder(t *testing.T) {
	// More frames than the coefficient stream has slots, so most are
	// decoded into a recycled frame that still holds an older picture.
	const w, h, frames = 64, 32, 10
	enc, err := EncodedSequence(w, h, frames, 75, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []hinch.Backend{hinch.BackendSim, hinch.BackendReal} {
		app, err := hinch.NewApp(decodeProg(w, h, frames, 2), DefaultRegistry(), hinch.Config{Backend: backend, Cores: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(frames); err != nil {
			t.Fatal(err)
		}
		got := app.Component("snk").(*VideoSink).Frames()
		if len(got) != frames {
			t.Fatalf("backend %v: %d frames, want %d", backend, len(got), frames)
		}
		for i := range got {
			want, err := mjpeg.Decode(enc[i])
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Equal(want) {
				t.Fatalf("backend %v frame %d: staged pipeline differs from fused decoder", backend, i)
			}
		}
	}
}

// coeffProbe records which coefficient frame each iteration carried.
type coeffProbe struct {
	mu   sync.Mutex
	seen map[*mjpeg.CoeffFrame]int
}

func (p *coeffProbe) Init(*hinch.InitContext) error { return nil }

func (p *coeffProbe) Run(rc *hinch.RunContext) error {
	cf, err := hinch.CoeffFrameOf(rc.In("in"), "in")
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.seen[cf]++
	p.mu.Unlock()
	return nil
}

// TestJPEGDecodeRecyclesSlotFrames checks that jpegdecode decodes into
// the frame its output slot already holds: a run allocates one
// coefficient frame per slot of the stream, not one per iteration, and
// a second App takes the first one's frames back from mjpeg's
// free-list instead of allocating its own.
func TestJPEGDecodeRecyclesSlotFrames(t *testing.T) {
	const w, h, frames = 32, 32, 12
	for _, backend := range []hinch.Backend{hinch.BackendSim, hinch.BackendReal} {
		var runs [2]map[*mjpeg.CoeffFrame]int
		var slots [2]int
		for i := range runs {
			probe := &coeffProbe{seen: map[*mjpeg.CoeffFrame]int{}}
			reg := DefaultRegistry()
			reg.Register("coeffprobe", hinch.ClassSpec{
				New: func() hinch.Component { return probe },
				In:  []string{"in"},
			})
			b := graph.NewBuilder("recycle")
			b.PacketStream("pk", w*h/4)
			b.CoeffStream("cf", w, h)
			b.Body(
				b.Component("src", "mjpegsrc", graph.Ports{"out": "pk"}, graph.Params{
					"width": itoa(w), "height": itoa(h), "frames": itoa(frames), "quality": "75", "seed": "4"}),
				b.Component("dec", "jpegdecode", graph.Ports{"in": "pk", "out": "cf"},
					graph.Params{"width": itoa(w), "height": itoa(h)}),
				b.Component("probe", "coeffprobe", graph.Ports{"in": "cf"}, nil),
			)
			app, err := hinch.NewApp(b.MustProgram(), reg, hinch.Config{Backend: backend, Cores: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := app.Run(frames); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, n := range probe.seen {
				total += n
			}
			runs[i], slots[i] = probe.seen, app.Snapshot().HighWater
			if total != frames || len(probe.seen) != slots[i] || slots[i] >= frames {
				t.Errorf("backend %v run %d: %d iterations carried %d distinct coefficient frames over %d slots; want one frame per slot",
					backend, i, total, len(probe.seen), slots[i])
			}
		}
		// The free-list is a LIFO: the first run's frames are on top.
		reused := 0
		for cf := range runs[1] {
			if runs[0][cf] > 0 {
				reused++
			}
		}
		if want := min(slots[0], slots[1]); reused != want {
			t.Errorf("backend %v: the second App reused %d of the first one's coefficient frames, want %d", backend, reused, want)
		}
	}
}

// TestCoeffStreamRejectsPartialBlocks checks that NewApp refuses a coeff
// stream whose 4:2:0 planes would not cover whole 8×8 blocks, before
// any slot tries to build a coefficient frame for it.
func TestCoeffStreamRejectsPartialBlocks(t *testing.T) {
	reg := DefaultRegistry()
	reg.Register("coeffprobe", hinch.ClassSpec{
		New: func() hinch.Component { return &coeffProbe{} },
		In:  []string{"in"},
	})
	b := graph.NewBuilder("bad")
	b.PacketStream("pk", 1024)
	b.CoeffStream("cf", 40, 24)
	b.Body(
		b.Component("src", "mjpegsrc", graph.Ports{"out": "pk"}, graph.Params{
			"width": "40", "height": "24", "frames": "2"}),
		b.Component("dec", "jpegdecode", graph.Ports{"in": "pk", "out": "cf"}, graph.Params{"width": "40", "height": "24"}),
		b.Component("probe", "coeffprobe", graph.Ports{"in": "cf"}, nil),
	)
	_, err := hinch.NewApp(b.MustProgram(), reg, hinch.Config{Backend: hinch.BackendReal})
	if err == nil || !strings.Contains(err.Error(), "multiples of 16") {
		t.Fatalf("40x24 coeff stream: err = %v, want a whole-block error", err)
	}
}

func TestMJPEGSourceRejectsZeroFrames(t *testing.T) {
	b := graph.NewBuilder("bad")
	b.PacketStream("pk", 1024)
	b.Body(
		b.Component("src", "mjpegsrc", graph.Ports{"out": "pk"}, graph.Params{
			"width": "32", "height": "32", "frames": "0"}),
		b.Component("dec", "jpegdecode", graph.Ports{"in": "pk", "out": "cf"}, graph.Params{"width": "32", "height": "32"}),
	)
	b.CoeffStream("cf", 32, 32)
	if _, err := hinch.NewApp(b.MustProgram(), DefaultRegistry(), hinch.Config{Backend: hinch.BackendSim}); err == nil {
		t.Fatal("frames=0 accepted")
	}
}

func TestBlendRequiresInPlaceCanvas(t *testing.T) {
	// canvas and out on different streams must fail at run time.
	b := graph.NewBuilder("bad")
	b.FrameStream("bg", 32, 32)
	b.FrameStream("small", 16, 16)
	b.FrameStream("other", 32, 32)
	b.Body(
		b.Component("s1", "videosrc", graph.Ports{"out": "bg"}, graph.Params{"width": "32", "height": "32", "frames": "4"}),
		b.Component("s2", "videosrc", graph.Ports{"out": "small"}, graph.Params{"width": "16", "height": "16", "frames": "4", "seed": "2"}),
		b.Component("bl", "blend", graph.Ports{"small": "small", "canvas": "bg", "out": "other"}, nil),
		b.Component("snk", "videosink", graph.Ports{"in": "other"}, nil),
	)
	app, err := hinch.NewApp(b.MustProgram(), DefaultRegistry(), hinch.Config{Backend: hinch.BackendSim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(2); err == nil || !strings.Contains(err.Error(), "in-place") {
		t.Fatalf("err = %v", err)
	}
}

func TestBlendRepositionViaReconfigure(t *testing.T) {
	var bl Blend
	if err := bl.Reconfigure("pos=4,6"); err != nil {
		t.Fatal(err)
	}
	if bl.x != 4 || bl.y != 6 {
		t.Fatalf("position (%d,%d)", bl.x, bl.y)
	}
	if err := bl.Reconfigure("pos=3,3"); err == nil {
		t.Fatal("odd position accepted")
	}
	if err := bl.Reconfigure("volume=11"); err == nil {
		t.Fatal("unknown request accepted")
	}
}

func TestBlurReconfigureTaps(t *testing.T) {
	var b Blur
	b.taps.Store(3)
	if err := b.Reconfigure("taps=5"); err != nil || b.taps.Load() != 5 {
		t.Fatalf("taps=%d err=%v", b.taps.Load(), err)
	}
	if err := b.Reconfigure("taps=7"); err == nil {
		t.Fatal("taps=7 accepted")
	}
}

func TestBlurPipelineMatchesKernels(t *testing.T) {
	const w, h, frames = 64, 48, 4
	b := graph.NewBuilder("blur")
	b.FrameStream("v", w, h)
	b.FrameStream("t", w, h)
	b.FrameStream("o", w, h)
	b.Body(
		b.Component("src", "videosrc", graph.Ports{"out": "v"}, graph.Params{
			"width": itoa(w), "height": itoa(h), "frames": itoa(frames)}),
		b.Parallel(graph.ShapeCrossdep, 3,
			b.Component("h", "blurh", graph.Ports{"in": "v", "out": "t"}, graph.Params{"taps": "5"}),
			b.Component("vv", "blurv", graph.Ports{"in": "t", "out": "o"}, graph.Params{"taps": "5"}),
		),
		b.Component("snk", "videosink", graph.Ports{"in": "o"}, graph.Params{"collect": "1"}),
	)
	app := runProg(t, b.MustProgram(), frames, 3)
	got := app.Component("snk").(*VideoSink).Frames()

	src := media.GenerateSequence(w, h, frames, 1)
	for i := range got {
		want := media.NewFrame(w, h)
		tmp := media.NewFrame(w, h)
		kernels.BlurHPlane(tmp.Y, src[i].Y, w, h, 5, 0, h)
		kernels.CopyPlaneRows(tmp.U, src[i].U, w/2, 0, h/2)
		kernels.CopyPlaneRows(tmp.V, src[i].V, w/2, 0, h/2)
		kernels.BlurVPlane(want.Y, tmp.Y, w, h, 5, 0, h)
		kernels.CopyPlaneRows(want.U, tmp.U, w/2, 0, h/2)
		kernels.CopyPlaneRows(want.V, tmp.V, w/2, 0, h/2)
		if !got[i].Equal(want) {
			t.Fatalf("frame %d differs from direct kernel application", i)
		}
	}
}

func TestTriggerEmitsOnSchedule(t *testing.T) {
	b := graph.NewBuilder("trig")
	b.FrameStream("v", 32, 32)
	b.Queue("q")
	b.Body(
		b.Component("tr", "trigger", nil, graph.Params{
			"queue": "q", "event": "tick", "every": "3", "start": "2", "arg": "x"}),
		b.Component("src", "videosrc", graph.Ports{"out": "v"}, graph.Params{"width": "32", "height": "32", "frames": "10"}),
		b.Component("snk", "videosink", graph.Ports{"in": "v"}, nil),
	)
	app := runProg(t, b.MustProgram(), 10, 1)
	evs := app.Queue("q").Drain(math.MaxInt)
	// start=2, every=3, 10 iterations -> fires at 2, 5, 8.
	if len(evs) != 3 {
		t.Fatalf("%d events", len(evs))
	}
	for _, ev := range evs {
		if ev.Name != "tick" || ev.Arg != "x" {
			t.Fatalf("event %+v", ev)
		}
	}
}

func TestTriggerValidation(t *testing.T) {
	for _, params := range []graph.Params{
		{"queue": "q", "event": "e"},               // no every
		{"queue": "q", "every": "3"},               // no event
		{"event": "e", "every": "3"},               // no queue
		{"queue": "q", "event": "e", "every": "0"}, // bad every
	} {
		b := graph.NewBuilder("trig")
		b.Queue("q")
		b.Body(b.Component("tr", "trigger", nil, params))
		if _, err := hinch.NewApp(b.MustProgram(), DefaultRegistry(), hinch.Config{Backend: hinch.BackendSim}); err == nil {
			t.Fatalf("params %v accepted", params)
		}
	}
}

func TestDownscaleFactorValidation(t *testing.T) {
	// A missing factor is no longer an Init error when the stream
	// geometry determines it (32x32 -> 16x16 infers K=2); an impossible
	// geometry must still be rejected — now at format-reconciliation
	// time, before any component runs.
	b := graph.NewBuilder("bad")
	b.FrameStream("a", 32, 32)
	b.FrameStream("b2", 17, 16) // no integer factor scales 32 to 17
	b.Body(
		b.Component("src", "videosrc", graph.Ports{"out": "a"}, graph.Params{"width": "32", "height": "32", "frames": "4"}),
		b.Component("ds", "downscale", graph.Ports{"in": "a", "out": "b2"}, nil),
		b.Component("snk", "videosink", graph.Ports{"in": "b2"}, nil),
	)
	_, err := hinch.NewApp(b.MustProgram(), DefaultRegistry(), hinch.Config{Backend: hinch.BackendSim})
	if err == nil || !strings.Contains(err.Error(), "format mismatch") {
		t.Fatalf("err = %v, want format mismatch", err)
	}
}

func TestParsePlaneAndPos(t *testing.T) {
	for _, c := range []struct {
		in   string
		want media.PlaneID
	}{{"Y", media.PlaneY}, {"y", media.PlaneY}, {"", media.PlaneY}, {"U", media.PlaneU}, {"v", media.PlaneV}} {
		got, err := parsePlane(c.in)
		if err != nil || got != c.want {
			t.Errorf("parsePlane(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := parsePlane("A"); err == nil {
		t.Error("bad plane accepted")
	}
	x, y, err := parsePos(" 10 , 20 ")
	if err != nil || x != 10 || y != 20 {
		t.Errorf("parsePos: %d %d %v", x, y, err)
	}
	for _, bad := range []string{"10", "a,b", "1,2,3"} {
		if _, _, err := parsePos(bad); err == nil {
			t.Errorf("parsePos(%q) accepted", bad)
		}
	}
}

func TestRegistryHasAllClasses(t *testing.T) {
	r := DefaultRegistry()
	for _, class := range []string{"videosrc", "mjpegsrc", "copyplane", "downscale",
		"blend", "jpegdecode", "idct", "blurh", "blurv", "videosink", "trigger"} {
		if _, err := r.Lookup(class); err != nil {
			t.Errorf("class %s missing: %v", class, err)
		}
	}
	if len(r.Classes()) != 11 {
		t.Errorf("%d classes", len(r.Classes()))
	}
}

func TestEncodedSequenceCached(t *testing.T) {
	a, err := EncodedSequence(32, 32, 2, 75, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodedSequence(32, 32, 2, 75, 9)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0][0] != &b[0][0] {
		t.Fatal("sequence not cached")
	}
}

func TestSinkChecksumMatchesManualFold(t *testing.T) {
	app := runProg(t, srcSinkProg(32, 32, 4, "5"), 4, 1)
	sink := app.Component("snk").(*VideoSink)
	var chk uint64
	for _, f := range media.GenerateSequence(32, 32, 4, 5) {
		chk = chk*1099511628211 ^ media.Checksum(f)
	}
	if sink.Checksum() != chk {
		t.Fatal("sink checksum fold differs")
	}
}
