package components

import (
	"fmt"
	"sync/atomic"

	"xspcl/internal/hinch"
	"xspcl/internal/kernels"
	"xspcl/internal/media"
)

// Blur is one phase (horizontal or vertical) of the separable Gaussian
// blur applied to the luminance field (the paper's Blur application:
// "a 3x3 or 5x5 Gaussian blurring kernel is applied to the luminance
// field"; "the kernel is separated into an horizontal and vertical
// phase"). The chroma planes are passed through by copying.
//
// The vertical phase reads halo rows beyond its slice, which is why the
// Blur application connects the two phases with a crossdep group.
//
// The kernel size can be switched at runtime with a reconfiguration
// request "taps=3" or "taps=5" (the Blur-35 reconfigurable variant
// drives this through an option toggle instead, matching the paper).
//
// Parameters:
//
//	taps   — 3 or 5 (default 3)
//	chroma — "copy" (default) copies U/V in the horizontal phase;
//	         "skip" leaves them untouched
type Blur struct {
	horizontal bool
	copyChroma bool
	slice      int
	n          int

	taps atomic.Int32 // written by Reconfigure, read by every job
}

// Init implements hinch.Component.
func (c *Blur) Init(ic *hinch.InitContext) error {
	taps, err := ic.IntParam("taps", 3)
	if err != nil {
		return err
	}
	if taps != 3 && taps != 5 {
		return fmt.Errorf("components: blur %s: taps must be 3 or 5, got %d", ic.Name(), taps)
	}
	c.taps.Store(int32(taps))
	switch ic.StringParam("chroma", "copy") {
	case "copy":
		c.copyChroma = true
	case "skip":
		c.copyChroma = false
	default:
		return fmt.Errorf("components: blur %s: bad chroma mode", ic.Name())
	}
	c.slice, c.n = ic.Slice(), ic.NSlices()
	return nil
}

// Reconfigure implements hinch.Reconfigurable: "taps=3" / "taps=5".
func (c *Blur) Reconfigure(request string) error {
	switch request {
	case "taps=3":
		c.taps.Store(3)
	case "taps=5":
		c.taps.Store(5)
	default:
		return fmt.Errorf("components: blur: unsupported reconfiguration request %q", request)
	}
	return nil
}

// Run implements hinch.Component.
func (c *Blur) Run(rc *hinch.RunContext) error {
	in, err := hinch.FrameOf(rc.In("in"), "in")
	if err != nil {
		return err
	}
	out, err := hinch.FrameOf(rc.Out("out"), "out")
	if err != nil {
		return err
	}
	if in.W != out.W || in.H != out.H {
		return fmt.Errorf("components: blur size mismatch")
	}
	taps := int(c.taps.Load())

	w, h := in.W, in.H
	r0, r1 := media.SliceRows(h, c.slice, c.n)
	halo := 0
	if r1 > r0 && !rc.Workless() {
		if c.horizontal {
			kernels.BlurHPlane(out.Y, in.Y, w, h, taps, r0, r1)
		} else {
			kernels.BlurVPlane(out.Y, in.Y, w, h, taps, r0, r1)
		}
	}
	if !c.horizontal {
		halo = kernels.BlurHaloRadius(taps)
	}
	rc.Charge(kernels.BlurOps((r1-r0)*w, taps))
	hr0, hr1 := max(0, r0-halo), min(h, r1+halo)
	rc.Access(hinch.FramePlaneRegion(rc.PortRegion("in"), w, h, media.PlaneY, hr0, hr1), false)
	rc.Access(hinch.FramePlaneRegion(rc.PortRegion("out"), w, h, media.PlaneY, r0, r1), true)

	if c.copyChroma {
		ch := in.CH()
		cw := in.CW()
		c0, c1 := media.SliceRows(ch, c.slice, c.n)
		if c1 > c0 && !rc.Workless() {
			kernels.CopyPlaneRows(out.U, in.U, cw, c0, c1)
			kernels.CopyPlaneRows(out.V, in.V, cw, c0, c1)
		}
		rc.Charge(2 * kernels.CopyOps((c1-c0)*cw))
		for pl := media.PlaneU; pl <= media.PlaneV; pl++ {
			rc.Access(hinch.FramePlaneRegion(rc.PortRegion("in"), w, h, pl, c0, c1), false)
			rc.Access(hinch.FramePlaneRegion(rc.PortRegion("out"), w, h, pl, c0, c1), true)
		}
	}
	return nil
}
