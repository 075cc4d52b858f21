package main

import (
	"testing"

	"xspcl"
	"xspcl/internal/apps"
	"xspcl/internal/components"
)

// TestReferenceMatchesStockApps: the frozen reference and the stock
// applications (videosrc/mjpegsrc and videosink, one simulated core)
// produce the same frames from the same content seeds.
func TestReferenceMatchesStockApps(t *testing.T) {
	const frames = 4
	ring := func(w, h int, seed uint64) []*xspcl.Frame { return xspcl.GenerateVideo(w, h, ringLen, seed) }
	packets := func(t *testing.T, cfg apps.JPiPConfig, seed uint64) [][]byte {
		pk, err := components.EncodedSequence(cfg.W, cfg.H, cfg.Frames, cfg.Quality, seed)
		if err != nil {
			t.Fatal(err)
		}
		return pk
	}
	pip := func(pips int) (*apps.Variant, func(*testing.T) renderer) {
		cfg := apps.DefaultPiP(pips)
		cfg.Frames, cfg.Collect = frames, true
		return apps.NewPiPVariant("pip", cfg), func(*testing.T) renderer {
			insets := [][]*xspcl.Frame{ring(cfg.W, cfg.H, 2), ring(cfg.W, cfg.H, 3)}
			return refPiP(ring(cfg.W, cfg.H, 1), insets[:pips], cfg.Factor)
		}
	}
	jcfg := apps.DefaultJPiP(2)
	jcfg.Frames, jcfg.Collect = 2, true
	bcfg := apps.DefaultBlur(5)
	bcfg.Frames, bcfg.Collect = frames, true
	pip1, ref1 := pip(1)
	pip2, ref2 := pip(2)
	cases := []struct {
		name    string
		variant *apps.Variant
		ref     func(*testing.T) renderer
	}{
		{"PiP-1", pip1, ref1},
		{"PiP-2", pip2, ref2},
		{"JPiP-2", apps.NewJPiPVariant("jpip", jcfg), func(t *testing.T) renderer {
			return refJPiP(packets(t, jcfg, 1), [][][]byte{packets(t, jcfg, 2), packets(t, jcfg, 3)}, jcfg.Factor)
		}},
		{"Blur-5", apps.NewBlurVariant("blur", bcfg), func(*testing.T) renderer {
			return refBlur(ring(bcfg.W, bcfg.H, 1), bcfg.Taps)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, sink, err := c.variant.Run(xspcl.Config{Backend: xspcl.BackendSim, Cores: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := sink.Frames()
			if rep.Iterations != c.variant.Frames || len(got) != c.variant.Frames {
				t.Fatalf("stock app: %d iterations, %d frames collected, want %d", rep.Iterations, len(got), c.variant.Frames)
			}
			want, err := referenceCRCs(c.ref(t), len(got))
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range got {
				if crc := frameCRC(f); crc != want[i] {
					t.Errorf("frame %d: stock app %08x, reference %08x", i, crc, want[i])
				}
			}
		})
	}
}

type plainComponent struct{}

func (plainComponent) Init(*xspcl.InitContext) error { return nil }
func (plainComponent) Run(*xspcl.RunContext) error   { return nil }

type movableComponent struct {
	plainComponent
	requests []string
}

func (m *movableComponent) Reconfigure(req string) error {
	m.requests = append(m.requests, req)
	return nil
}

// TestDecoratorForwardsReconfigurable: the engine finds a component's
// reconfiguration interface by type assertion, so the tracing decorator
// must have it exactly when the decorated component does.
func TestDecoratorForwardsReconfigurable(t *testing.T) {
	tr := newTracer(newFixture("src", 1), 1)
	if _, ok := tr.wrap("plain", plainComponent{}).(xspcl.Reconfigurable); ok {
		t.Error("decorated plain component claims to be reconfigurable")
	}
	inner := &movableComponent{}
	r, ok := tr.wrap("movable", inner).(xspcl.Reconfigurable)
	if !ok {
		t.Fatal("decorated reconfigurable component lost its interface")
	}
	if err := r.Reconfigure("x=4"); err != nil || len(inner.requests) != 1 || inner.requests[0] != "x=4" {
		t.Errorf("request not forwarded: err %v, got %q", err, inner.requests)
	}
}

// TestProbeArraysAreFixed: the stamp, fingerprint and span arrays are
// allocated in the input phase and only written inside Run, including
// for the option instances a reconfiguration creates mid-run.
func TestProbeArraysAreFixed(t *testing.T) {
	r, err := newRunner(tiny(t, "pip12"), 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		if ep := r.episode(true); ep.err != nil || ep.failed != 0 {
			t.Fatalf("episode: err %v, %d frames failed", ep.err, ep.failed)
		}
	}
	run() // the warm-up: creates one span slab per instance
	fx := r.fx
	launch, retire, crc := &fx.launch[0], &fx.retire[0], &fx.crc[0]
	slabs := len(r.tr.order)
	spans := make([]*span, slabs)
	for i, s := range r.tr.order {
		spans[i] = &s.spans[0]
	}
	run()
	if launch != &fx.launch[0] || retire != &fx.retire[0] || crc != &fx.crc[0] ||
		len(fx.launch) != tinyFrames || len(fx.retire) != tinyFrames || len(fx.crc) != tinyFrames {
		t.Error("a fixture array was reallocated or resized by an episode")
	}
	if len(r.tr.order) != slabs {
		t.Errorf("span slabs grew from %d to %d after the warm-up", slabs, len(r.tr.order))
	}
	for i, s := range r.tr.order[:slabs] {
		if spans[i] != &s.spans[0] || len(s.spans) != tinyFrames {
			t.Errorf("span slab of %s was reallocated or resized", s.instance)
		}
	}
}
