package main

import (
	"xspcl"
	"xspcl/internal/kernels"
	"xspcl/internal/media"
	"xspcl/internal/mjpeg"
)

// This file is the frozen sequential reference: plain fused loops over
// the kernels, one thread, no runtime. It exists so that the benchmark
// judges the engine's output against something the engine cannot
// change, and so that seq.frames_per_s gives throughput next to the best
// plain implementation on the same host (paper Fig. 8). Do not route it
// through components, hinch or apps.Seq*: a change there must not be
// able to move the reference.

// A renderer produces output frame i of one application configuration
// from the input rings. It may return the same buffer on every call.
type renderer func(i int) (*xspcl.Frame, error)

// insetPos is where the picture-in-picture applications place inset k
// (0 or 1) of size ow x oh on a w x h canvas: the first bottom-right,
// the second top-left, 16 pixels in, on even coordinates.
func insetPos(k, w, h, ow, oh int) (x, y int) {
	const margin = 16
	if k == 1 {
		return margin, margin
	}
	return (w - ow - margin) &^ 1, (h - oh - margin) &^ 1
}

// overlay downscales pic by factor into an ow x oh window of canvas at
// inset position k, fused into one pass per plane (no small picture is
// materialised).
func overlay(canvas, pic *xspcl.Frame, k, factor, ow, oh int) {
	x, y := insetPos(k, canvas.W, canvas.H, ow, oh)
	for _, pl := range media.Planes {
		src, sw, sh := pic.Plane(pl)
		dst, dw, _ := canvas.Plane(pl)
		pw, ph := media.PlaneDims(pl, ow, oh)
		px, py := x, y
		if pl != media.PlaneY {
			px, py = x/2, y/2
		}
		kernels.DownscaleWindow(dst, dw, px, py, pw, ph, src, sw, sh, factor, 0, ph)
	}
}

// refPiP renders PiP: the background with pips downscaled insets.
func refPiP(bg []*xspcl.Frame, insets [][]*xspcl.Frame, factor int) renderer {
	out := xspcl.NewFrame(bg[0].W, bg[0].H)
	return func(i int) (*xspcl.Frame, error) {
		if err := out.CopyFrom(bg[i%ringLen]); err != nil {
			return nil, err
		}
		for k, ring := range insets {
			overlay(out, ring[i%ringLen], k, factor, out.W/factor, out.H/factor)
		}
		return out, nil
	}
}

// refJPiP renders JPiP: the decoded background with decoded, downscaled
// insets. The inset is the largest even geometry whose upscaled extent
// fits the source (1280x720 / 16 -> 80x44).
func refJPiP(bg [][]byte, insets [][][]byte, factor int) renderer {
	return func(i int) (*xspcl.Frame, error) {
		out, err := mjpeg.Decode(bg[i%len(bg)])
		if err != nil {
			return nil, err
		}
		for k, packets := range insets {
			pic, err := mjpeg.Decode(packets[i%len(packets)])
			if err != nil {
				return nil, err
			}
			overlay(out, pic, k, factor, (out.W/factor)&^1, (out.H/factor)&^1)
		}
		return out, nil
	}
}

// refBlur renders Blur: a separable taps x taps Gaussian on luminance,
// chroma passed through.
func refBlur(in []*xspcl.Frame, taps int) renderer {
	w, h := in[0].W, in[0].H
	tmp, out := xspcl.NewFrame(w, h), xspcl.NewFrame(w, h)
	return func(i int) (*xspcl.Frame, error) {
		f := in[i%ringLen]
		kernels.BlurHPlane(tmp.Y, f.Y, w, h, taps, 0, h)
		kernels.BlurVPlane(out.Y, tmp.Y, w, h, taps, 0, h)
		copy(out.U, f.U)
		copy(out.V, f.V)
		return out, nil
	}
}

// refCopyY renders the scheduler workload: luminance copied, chroma
// left as the stream slot was allocated (zero).
func refCopyY(in []*xspcl.Frame) renderer {
	out := xspcl.NewFrame(in[0].W, in[0].H)
	return func(i int) (*xspcl.Frame, error) {
		copy(out.Y, in[i%ringLen].Y)
		return out, nil
	}
}

// referenceCRCs fingerprints the first period frames of a renderer's
// output; the inputs repeat after that.
func referenceCRCs(r renderer, period int) ([]uint32, error) {
	crcs := make([]uint32, period)
	for i := range crcs {
		f, err := r(i)
		if err != nil {
			return nil, err
		}
		crcs[i] = frameCRC(f)
	}
	return crcs, nil
}
