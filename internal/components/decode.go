package components

import (
	"fmt"

	"xspcl/internal/hinch"
	"xspcl/internal/media"
	"xspcl/internal/mjpeg"
)

// JPEGDecode is the entropy-decoding stage of the staged JPEG decoder
// (the "JPEG decode" component of the paper's Figure 7): it Huffman-
// decodes and dequantises one compressed packet into coefficient
// planes, which the per-plane IDCT components turn into pixels.
//
// Parameters:
//
//	width, height — frame dimensions, used for workless cost estimates
type JPEGDecode struct {
	w, h int
}

// Init implements hinch.Component.
func (c *JPEGDecode) Init(ic *hinch.InitContext) error {
	var err error
	if c.w, err = ic.RequireInt("width"); err != nil {
		return err
	}
	if c.h, err = ic.RequireInt("height"); err != nil {
		return err
	}
	return nil
}

// Run implements hinch.Component.
func (c *JPEGDecode) Run(rc *hinch.RunContext) error {
	if rc.Workless() {
		rc.SetOut("out", (*mjpeg.CoeffFrame)(nil))
		rc.Charge(mjpeg.EntropyOpsEstimate(c.w, c.h))
		rc.Access(rc.PortRegion("in"), false)
		rc.Access(rc.PortRegion("out"), true)
		return nil
	}
	pkt, err := hinch.PacketOf(rc.In("in"), "in")
	if err != nil {
		return err
	}
	// The slot holds the coefficient frame the stream created for it
	// (from mjpeg's free-list, so possibly another App's), last written
	// by an earlier iteration; a slot is released only after every
	// reader of its iteration has finished, so that frame is free to
	// decode into.
	prev, _ := rc.Out("out").(*mjpeg.CoeffFrame)
	cf, err := mjpeg.DecodeEntropyInto(prev, pkt.Data)
	if err != nil {
		return err
	}
	if cf.W != c.w || cf.H != c.h {
		return fmt.Errorf("components: jpegdecode: packet is %dx%d, expected %dx%d", cf.W, cf.H, c.w, c.h)
	}
	rc.SetOut("out", cf)
	rc.Charge(mjpeg.EntropyOps(cf.Stats))
	in := rc.PortRegion("in")
	if n := int64(len(pkt.Data)); in.Bytes > n {
		in = in.Sub(0, n)
	}
	rc.Access(in, false)
	rc.Access(rc.PortRegion("out"), true)
	return nil
}

// IDCT inverse-transforms one color plane of a coefficient frame into
// the output frame, slice-parallel over block rows (the paper's JPiP
// runs it with 45 slices on a 720-row plane: 16 rows per slice).
//
// Parameters: plane — Y, U or V (default Y).
type IDCT struct {
	plane media.PlaneID
	slice int
	n     int
}

// Init implements hinch.Component.
func (c *IDCT) Init(ic *hinch.InitContext) error {
	var err error
	c.plane, err = parsePlane(ic.StringParam("plane", "Y"))
	c.slice, c.n = ic.Slice(), ic.NSlices()
	return err
}

// Run implements hinch.Component.
func (c *IDCT) Run(rc *hinch.RunContext) error {
	out, err := hinch.FrameOf(rc.Out("out"), "out")
	if err != nil {
		return err
	}
	dst, pw, ph := out.Plane(c.plane)
	blockRows := ph / 8
	b0, b1 := media.SliceRows(blockRows, c.slice, c.n)
	r0, r1 := b0*8, b1*8

	if !rc.Workless() {
		cf, err := hinch.CoeffFrameOf(rc.In("in"), "in")
		if err != nil {
			return err
		}
		cp := cf.Planes[int(c.plane)]
		if cp.W != pw || cp.H != ph {
			return fmt.Errorf("components: idct %s plane: coeffs %dx%d vs frame plane %dx%d", c.plane, cp.W, cp.H, pw, ph)
		}
		if r1 > r0 {
			mjpeg.IDCTPlaneRows(dst, cp, r0, r1)
		}
	}
	rc.Charge(mjpeg.IDCTOps((r1 - r0) * pw))
	rc.Access(hinch.CoeffPlaneRegion(rc.PortRegion("in"), out.W, out.H, c.plane, r0, r1), false)
	rc.Access(hinch.FramePlaneRegion(rc.PortRegion("out"), out.W, out.H, c.plane, r0, r1), true)
	return nil
}
