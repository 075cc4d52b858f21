// Package kernels implements the pure pixel kernels used by the XSPCL
// component library and by the hand-written sequential baseline
// applications: box downscaling, picture-in-picture blending, plane
// copy, and separable Gaussian blur.
//
// Every kernel comes in a row-range form so that data-parallel "slice"
// component copies can each process their assigned horizontal band, and
// each kernel has a companion Ops function giving its arithmetic
// operation count. The SpaceCAKE-substitute simulator charges
// compute cycles as ops × CPI, so the Ops functions are the single
// source of truth for the cost model and are exercised directly by the
// experiment harness.
package kernels

import "encoding/binary"

// DownscalePlane box-downscales one plane by an integer factor.
// src is sw×sh, dst is (sw/factor)×(sh/factor); each destination sample
// is the rounded average of a factor×factor source box. Only
// destination rows [r0, r1) are written, so slice copies can share the
// destination buffer.
func DownscalePlane(dst []uint8, dw, dh int, src []uint8, sw, sh, factor, r0, r1 int) {
	DownscaleWindow(dst, dw, 0, 0, dw, dh, src, sw, sh, factor, r0, r1)
}

// DownscaleWindow box-downscales src (sw×sh) by factor into a window of
// a larger destination plane: the ow×oh downscaled image lands in dst
// (a dw-wide plane) with its top-left corner at (ox, oy). Only output
// rows [r0, r1) of the window are written.
//
// This is the fused downscale+blend the paper's hand-written sequential
// PiP/JPiP versions use ("the sequential versions ... combine several
// operations, for example down scaling and blending, into a single
// function"): the scaled pixels go straight into the composite frame,
// with no intermediate small-frame buffer.
func DownscaleWindow(dst []uint8, dw, ox, oy, ow, oh int, src []uint8, sw, sh, factor, r0, r1 int) {
	if ow*factor > sw || oh*factor > sh {
		panic("kernels: downscale geometry mismatch")
	}
	if ox < 0 || oy < 0 || (ox+ow) > dw || (oy+oh)*dw > len(dst) {
		panic("kernels: downscale window out of bounds")
	}
	// PiP scales by ×4 and JPiP by ×16. Each has its own word-parallel
	// loop: ×4 makes four boxes a trip from two loads per box row, and
	// ×16 walks its source rows once, two loads per box row. Every other
	// factor, ×2 and ×8 included, takes boxAverage per sample. Each fast
	// path is boxAverage bit for bit: the same rounded box average, with
	// the /factor² division strength-reduced to a shift.
	switch factor {
	case 1:
		for y := r0; y < r1; y++ {
			copy(dst[(oy+y)*dw+ox:(oy+y)*dw+ox+ow], src[y*sw:y*sw+ow])
		}
		return
	case 4:
		for y := r0; y < r1; y++ {
			downscaleRow4(dst[(oy+y)*dw+ox:(oy+y)*dw+ox+ow], src[4*y*sw:], sw)
		}
		return
	case 16:
		downscaleWindow16(dst, dw, ox, oy, ow, src, sw, r0, r1)
		return
	}
	for y := r0; y < r1; y++ {
		drow := dst[(oy+y)*dw+ox : (oy+y)*dw+ox+ow]
		for x := range drow {
			drow[x] = boxAverage(src, sw, (y*sw+x)*factor, factor)
		}
	}
}

// boxAverage is the rounded average of the factor×factor box of the
// sw-wide plane src whose top-left sample is src[i].
func boxAverage(src []uint8, sw, i, factor int) uint8 {
	sum := factor * factor / 2
	for r := i; r < i+factor*sw; r += sw {
		for _, s := range src[r : r+factor] {
			sum += int(s)
		}
	}
	return uint8(sum / (factor * factor))
}

// downscaleRow4 makes one row of ×4 boxes, four boxes a trip: each of
// the four box rows, at src[0], src[sw], src[2*sw] and src[3*sw], gives
// 16 bytes, two little-endian uint64 loads, and each 8-byte half covers
// two neighbouring boxes (box4Pair). The four averages leave in one
// uint32 store. The row slices share one length and capacity, so one
// check of the first row's 16 bytes covers the trip's eight loads, and
// the row is a function of its own so that the four row pointers stay
// in registers. A last pair of columns takes one two-box step and an
// odd last column boxAverage.
func downscaleRow4(drow, src []uint8, sw int) {
	n := 4 * len(drow)
	s0 := src[:n:n]
	s1 := src[sw:][:n:n]
	s2 := src[2*sw:][:n:n]
	s3 := src[3*sw:][:n:n]
	x := 0
	for o := 0; o+16 <= n; o += 16 {
		a0, a1, a2, a3 := s0[o:o+16:o+16], s1[o:o+16:o+16], s2[o:o+16:o+16], s3[o:o+16:o+16]
		la := box4Pair(binary.LittleEndian.Uint64(a0), binary.LittleEndian.Uint64(a1),
			binary.LittleEndian.Uint64(a2), binary.LittleEndian.Uint64(a3))
		lb := box4Pair(binary.LittleEndian.Uint64(a0[8:]), binary.LittleEndian.Uint64(a1[8:]),
			binary.LittleEndian.Uint64(a2[8:]), binary.LittleEndian.Uint64(a3[8:]))
		u := la>>4&0x000000ff000000ff | (lb>>4&0x000000ff000000ff)<<16
		binary.LittleEndian.PutUint32(drow[x:x+4:x+4], uint32(u|u>>24))
		x += 4
	}
	if x+1 < len(drow) {
		o := 4 * x
		l := box4Pair(binary.LittleEndian.Uint64(s0[o:]), binary.LittleEndian.Uint64(s1[o:]),
			binary.LittleEndian.Uint64(s2[o:]), binary.LittleEndian.Uint64(s3[o:]))
		drow[x], drow[x+1] = uint8(l>>4), uint8(l>>36)
		x += 2
	}
	if x < len(drow) {
		drow[x] = boxAverage(src, sw, 4*x, 4)
	}
}

// box4Pair sums two neighbouring ×4 boxes from the words v0..v3 of
// their four box rows. evens+odds over the four words leaves four 16-bit
// lanes of at most 4·2·255 = 2040, the first box's two column pairs in
// lanes 0 and 1 and the second's in lanes 2 and 3; l += l>>16 folds
// lanes 0+1 and 2+3, so lanes 0 and 2 hold the two box sums plus the
// rounding 8 (at most 4088: nothing carries), and bits 4..11 and 36..43
// are (sum+8)>>4, boxAverage bit for bit.
func box4Pair(v0, v1, v2, v3 uint64) uint64 {
	l := v0&evenLanes + v1&evenLanes + v2&evenLanes + v3&evenLanes +
		v0>>8&evenLanes + v1>>8&evenLanes + v2>>8&evenLanes + v3>>8&evenLanes
	return l + l>>16 + 0x0000000800000008
}

// downscaleWindow16 is the ×16 fast path. It walks the source row-major:
// for a chunk of up to len(acc) outputs, each of the 16 source rows is
// read once, left to right, and a box row (16 samples, two uint64
// loads) adds its even and odd bytes to the box's accumulator word as
// four 16-bit lanes. A lane holds at most 16·4·255 = 16320 and the box
// sum 256·255 = 65280, so nothing carries and one multiply adds up the
// four lanes: the result is boxAverage's bit for bit.
func downscaleWindow16(dst []uint8, dw, ox, oy, ow int, src []uint8, sw, r0, r1 int) {
	var acc [16]uint64
	for y := r0; y < r1; y++ {
		drow := dst[(oy+y)*dw+ox : (oy+y)*dw+ox+ow]
		top := 16 * y * sw
		for x0 := 0; x0 < ow; x0 += len(acc) {
			box := acc[:min(len(acc), ow-x0)]
			for i := top + 16*x0; i < top+16*sw; i += sw {
				s := src[i : i+16*len(box)]
				for j := range box {
					v0 := binary.LittleEndian.Uint64(s[16*j:])
					v1 := binary.LittleEndian.Uint64(s[16*j+8:])
					box[j] += evens(v0) + odds(v0) + evens(v1) + odds(v1)
				}
			}
			for j, lanes := range box {
				drow[x0+j] = uint8((lanes*0x0001000100010001>>48 + 128) >> 8)
				box[j] = 0
			}
		}
	}
}

// DownscaleOps returns the cycle-calibrated operation count for
// downscaling outPixels destination samples by the given factor. The
// scaler is a proper polyphase filter, not a bare box average: each of
// the factor² contributing samples costs ~10 operations (load, weight
// multiply, accumulate, address update) plus a fixed per-output cost
// for normalisation, clamping and store.
func DownscaleOps(outPixels, factor int) int64 {
	return int64(outPixels) * int64(10*factor*factor+30)
}

// BlendPlane blends the small plane onto the dst plane with its top-left
// corner at (ox, oy), processing only small rows [r0, r1). alpha is in
// [0,256]: 256 overwrites dst entirely (opaque picture-in-picture), 128
// is an even mix. Offsets must keep the small plane inside dst.
func BlendPlane(dst []uint8, dw, dh int, small []uint8, sw, sh, ox, oy, alpha, r0, r1 int) {
	if ox < 0 || oy < 0 || ox+sw > dw || oy+sh > dh {
		panic("kernels: blend region out of bounds")
	}
	if alpha < 0 || alpha > 256 {
		panic("kernels: blend alpha out of range")
	}
	if alpha == 256 {
		// Opaque composite: a pure copy. When the window spans full
		// destination rows the whole band collapses to one copy.
		if ox == 0 && sw == dw {
			copy(dst[(oy+r0)*dw:(oy+r1)*dw], small[r0*sw:r1*sw])
			return
		}
		for y := r0; y < r1; y++ {
			copy(dst[(oy+y)*dw+ox:(oy+y)*dw+ox+sw], small[y*sw:(y+1)*sw])
		}
		return
	}
	inv := 256 - alpha
	for y := r0; y < r1; y++ {
		srow := small[y*sw : (y+1)*sw]
		drow := dst[(oy+y)*dw+ox : (oy+y)*dw+ox+sw]
		for x := range drow {
			drow[x] = uint8((int(srow[x])*alpha + int(drow[x])*inv + 128) >> 8)
		}
	}
}

// BlendOps returns the cycle-calibrated operation count for blending
// pixels samples. The opaque case is a vectorised copy (see CopyOps);
// a true alpha blend costs ~3 scalar operations per sample.
func BlendOps(pixels, alpha int) int64 {
	if alpha == 256 {
		return CopyOps(pixels)
	}
	return int64(pixels) * 3
}

// CopyPlaneRows copies rows [r0, r1) of a w-wide plane from src to dst.
func CopyPlaneRows(dst, src []uint8, w, r0, r1 int) {
	copy(dst[r0*w:r1*w], src[r0*w:r1*w])
}

// CopyOps returns the cycle-calibrated operation count for moving
// pixels samples: the modelled VLIW core copies with wide dual-issued
// loads and stores, ~4 bytes per cycle.
func CopyOps(pixels int) int64 { return int64(pixels)/4 + 1 }

// Gaussian kernels with σ=1 as used by the paper's Blur application:
// the binomial approximations [1 2 1]/4 and [1 4 6 4 1]/16.
var (
	gauss3 = [3]int{1, 2, 1}
	gauss5 = [5]int{1, 4, 6, 4, 1}
)

// The blur interiors run eight pixels per machine word: a little-endian
// uint64 load is split into its even and its odd bytes, each as four
// 16-bit lanes, and the tap sum is formed on whole words. Both kernels
// run as [outer 4 mid 4 outer]/16 — [1 4 6 4 1], and [1 2 1]/4 as
// [0 4 8 4 0], since (4s+8)>>4 == (s+2)>>2 — so a lane never exceeds
// 16*255+8 = 4088, nothing carries into the neighbouring lane, and the
// result is the per-sample one bit for bit. There is no other interior.
const (
	evenLanes  = 0x00FF00FF00FF00FF
	oddLanes   = 0xFF00FF00FF00FF00
	roundLanes = 0x0008000800080008
)

func evens(v uint64) uint64 { return v & evenLanes }
func odds(v uint64) uint64  { return v >> 8 & evenLanes }

// laneWeights returns the outer tap as a lane mask and the middle tap.
func laneWeights(taps int) (outer, mid uint64) {
	if BlurHaloRadius(taps) == 1 {
		return 0, 8
	}
	return ^uint64(0), 6
}

// tapSums returns the rounded tap sums of the two neighbouring windows
// l0..l4 and l1..l5 of lane words: two output rows in the vertical pass,
// the even and the odd output pixels in the horizontal.
func tapSums(l0, l1, l2, l3, l4, l5, outer, mid uint64) (uint64, uint64) {
	return (l0+l4)&outer + (l1+l3)<<2 + l2*mid + roundLanes,
		(l1+l5)&outer + (l2+l4)<<2 + l3*mid + roundLanes
}

// putLanes stores sum>>4 of the even and the odd lanes as eight bytes.
func putLanes(p []uint8, even, odd uint64) {
	binary.LittleEndian.PutUint64(p, even>>4&evenLanes|odd<<4&oddLanes)
}

// blurLine is the per-sample tap loop with border clamping, over samples
// [i0, i1) of the line of n samples at src[base], src[base+stride], ...:
// part of a row (stride 1) or of a column (stride w). It runs the planes
// too narrow for a word, and is what the word-parallel passes must equal.
func blurLine(dst, src []uint8, base, stride, n, i0, i1, taps int) {
	radius, kern, shift := blurKernel(taps)
	for i := i0; i < i1; i++ {
		sum := 1 << (shift - 1)
		for k := -radius; k <= radius; k++ {
			sum += kern[k+radius] * int(src[base+min(max(i+k, 0), n-1)*stride])
		}
		dst[base+i*stride] = uint8(sum >> shift)
	}
}

// BlurHPlane applies the horizontal pass of a 3- or 5-tap Gaussian to
// rows [r0, r1) of a w×h plane. taps must be 3 or 5. Borders clamp.
//
// A row runs word-parallel: its two ends on a copy with the clamped
// border written out, the last word of the interior redone at w-10 in
// place of a per-sample tail. Rows narrower than 12 take blurLine.
func BlurHPlane(dst, src []uint8, w, h, taps, r0, r1 int) {
	outer, mid := laneWeights(taps)
	for y := r0; y < r1; y++ {
		if w < 12 {
			blurLine(dst, src, y*w, 1, w, 0, w, taps)
			continue
		}
		d, s := dst[y*w:(y+1)*w], src[y*w:(y+1)*w]
		var edge [12]uint8
		edge[0], edge[1] = s[0], s[0]
		copy(edge[2:], s)
		blurHWords(d[:8], edge[:], outer, mid)
		blurHWords(d[8:w-2], s[6:], outer, mid)
		blurHWords(d[w-10:w-2], s[w-12:], outer, mid)
		copy(edge[:], s[w-10:])
		edge[10], edge[11] = s[w-1], s[w-1]
		blurHWords(d[w-8:], edge[:], outer, mid)
	}
}

// blurHWords computes d[i] from s[i..i+4] (centre s[i+2]) for the whole
// words of d, len(d) = len(s)-4. The words at s+0, s+2 and s+4 hold, as
// even and odd lanes, the six windows both output parities need.
func blurHWords(d, s []uint8, outer, mid uint64) {
	for len(d) >= 8 && len(s) >= 12 {
		a, c, e := binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[2:]), binary.LittleEndian.Uint64(s[4:])
		even, odd := tapSums(evens(a), odds(a), evens(c), odds(c), evens(e), odds(e), outer, mid)
		putLanes(d, even, odd)
		d, s = d[8:], s[8:]
	}
}

// BlurVPlane applies the vertical pass of a 3- or 5-tap Gaussian to rows
// [r0, r1) of a w×h plane. It reads up to radius rows above r0 and below
// r1 (clamped at the plane borders): the halo that gives the Blur
// application its crossdep dependency structure.
//
// Border clamping reduces to clamping the row indices. Rows run in
// pairs, word-parallel: two neighbouring output rows share all but one
// of their source rows, and so the lane splits. An odd last row runs as
// the second row of a pair and overwrites the first; the rows a window
// does not use are clamped into the halo, never read beyond it. The last
// word is redone at w-8 in place of a per-sample tail. Planes narrower
// than one word take blurLine.
func BlurVPlane(dst, src []uint8, w, h, taps, r0, r1 int) {
	outer, mid := laneWeights(taps)
	radius := BlurHaloRadius(taps)
	lo, hi := max(r0-radius, 0), min(r1+radius, h)-1
	if w < 8 {
		for x := 0; x < w; x++ {
			blurLine(dst, src, x, w, h, r0, r1, taps)
		}
		return
	}
	for y := r0; y < r1; y += 2 {
		y1 := min(y+1, r1-1)
		var rows [6][]uint8
		for k := range rows {
			sy := min(max(y1-3+k, lo), hi)
			rows[k] = src[sy*w : sy*w+w]
		}
		d0, d1 := dst[y*w:y*w+w], dst[y1*w:y1*w+w]
		blurVWords(d0, d1, &rows, outer, mid)
		if w%8 != 0 {
			for k := range rows {
				rows[k] = rows[k][w-8:]
			}
			blurVWords(d0[w-8:], d1[w-8:], &rows, outer, mid)
		}
	}
}

// blurVWords computes the whole words of d0 from rows[0:5] and of d1
// from rows[1:6].
func blurVWords(d0, d1 []uint8, rows *[6][]uint8, outer, mid uint64) {
	w := len(d0)
	d1, r0, r1, r2, r3, r4, r5 := d1[:w], rows[0][:w], rows[1][:w], rows[2][:w], rows[3][:w], rows[4][:w], rows[5][:w]
	for x := 0; x <= w-8; x += 8 {
		a, b, c := binary.LittleEndian.Uint64(r0[x:]), binary.LittleEndian.Uint64(r1[x:]), binary.LittleEndian.Uint64(r2[x:])
		d, e, f := binary.LittleEndian.Uint64(r3[x:]), binary.LittleEndian.Uint64(r4[x:]), binary.LittleEndian.Uint64(r5[x:])
		e0, e1 := tapSums(evens(a), evens(b), evens(c), evens(d), evens(e), evens(f), outer, mid)
		o0, o1 := tapSums(odds(a), odds(b), odds(c), odds(d), odds(e), odds(f), outer, mid)
		putLanes(d0[x:], e0, o0)
		putLanes(d1[x:], e1, o1)
	}
}

// BlurOps returns the arithmetic operation count of one blur pass
// (horizontal or vertical) over pixels samples with the given tap count:
// one multiply-accumulate per tap plus the rounding shift.
func BlurOps(pixels, taps int) int64 {
	return int64(pixels) * int64(2*taps+1)
}

func blurKernel(taps int) (radius int, kern []int, shift uint) {
	switch taps {
	case 3:
		return 1, gauss3[:], 2
	case 5:
		return 2, gauss5[:], 4
	}
	panic("kernels: blur taps must be 3 or 5")
}

// BlurHaloRadius returns the number of neighbour rows a vertical blur
// pass of the given tap count needs beyond its assigned band.
func BlurHaloRadius(taps int) int {
	r, _, _ := blurKernel(taps)
	return r
}
