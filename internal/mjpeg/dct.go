// Package mjpeg implements a from-scratch baseline-JPEG-style intra
// codec and a simple motion-JPEG container. It exists because the
// paper's JPiP application decodes motion-JPEG video through separate
// graph components ("JPEG decode" followed by per-plane "IDCT"
// components, Figure 7), so the decoder must expose those stages
// individually: entropy decoding produces dequantised coefficient
// planes, and the IDCT stage converts coefficient rows to pixels and is
// sliceable for data parallelism.
//
// The coding tools are real JPEG tools — 8×8 DCT, the Annex-K
// quantisation tables with libjpeg-style quality scaling, zigzag
// run-length coding and the Annex-K Huffman tables — but the bitstream
// container is this package's own (no JFIF markers, no byte stuffing).
package mjpeg

import (
	"math"
)

// dctBits is the fixed-point fraction width of the DCT basis tables.
// 12 bits keeps the two-pass transform exact enough for byte output
// while staying fully deterministic across platforms.
const dctBits = 12

// cosBasis[u][x] = round(alpha(u) * cos((2x+1)·u·π/16) << dctBits),
// the orthonormal 8-point DCT-II basis in fixed point.
var cosBasis [8][8]int32

func init() {
	for u := 0; u < 8; u++ {
		alpha := 0.5
		if u == 0 {
			alpha = math.Sqrt(1.0 / 8.0)
		}
		for x := 0; x < 8; x++ {
			v := alpha * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
			cosBasis[u][x] = int32(math.Round(v * (1 << dctBits)))
		}
	}
}

// Both transforms are exact integer linear maps with a single rounding
// shift at the end, evaluated in int64 (a ring, even on wrap-around), so
// the order of the multiply-adds is free. They use the basis symmetry
// cosBasis[u][7-x] == (-1)^u · cosBasis[u][x]: the even-u and odd-u
// half sums e and o of an 8-point pass are computed for x = 0..3 only
// and give out[x] = e+o, out[7-x] = e-o. There is no butterfly with
// intermediate rounding, which would change results.

const dctRound = 1 << (2*dctBits - 1)

// FDCT8x8 computes the 8×8 forward DCT of a level-shifted block.
// in holds 64 spatial samples (row-major, already shifted to be
// centred on zero); out receives 64 frequency coefficients in natural
// (row-major) order. in and out may alias.
func FDCT8x8(out, in *[64]int32) {
	var tmp [64]int64
	// Rows: tmp[y][u] = Σx basis[u][x]·in[y][x]
	for y := 0; y < 8; y++ {
		row := in[y*8 : y*8+8 : y*8+8]
		var s, d [4]int64 // in[x] ± in[7-x]: what even and odd u see
		for x := 0; x < 4; x++ {
			s[x] = int64(row[x]) + int64(row[7-x])
			d[x] = int64(row[x]) - int64(row[7-x])
		}
		for u := 0; u < 8; u += 2 {
			tmp[y*8+u] = dot4(&cosBasis[u], &s)
			tmp[y*8+u+1] = dot4(&cosBasis[u+1], &d)
		}
	}
	// Columns: out[v][u] = (Σy basis[v][y]·tmp[y][u]) >> 2·dctBits
	for u := 0; u < 8; u++ {
		var s, d [4]int64
		for y := 0; y < 4; y++ {
			s[y] = tmp[y*8+u] + tmp[(7-y)*8+u]
			d[y] = tmp[y*8+u] - tmp[(7-y)*8+u]
		}
		for v := 0; v < 8; v += 2 {
			out[v*8+u] = int32((dot4(&cosBasis[v], &s) + dctRound) >> (2 * dctBits))
			out[(v+1)*8+u] = int32((dot4(&cosBasis[v+1], &d) + dctRound) >> (2 * dctBits))
		}
	}
}

// dot4 is Σ b[x]·t[x] over the first half of a basis row.
func dot4(b *[8]int32, t *[4]int64) int64 {
	return int64(b[0])*t[0] + int64(b[1])*t[1] + int64(b[2])*t[2] + int64(b[3])*t[3]
}

// IDCT8x8 computes the 8×8 inverse DCT. in holds 64 coefficients in
// natural order; out receives 64 level-shifted spatial samples. in and
// out may alias.
func IDCT8x8(out, in *[64]int32) {
	var px, col [64]int64
	if !idctBlock(&px, &col, in, dctRound) {
		dc := int32((idctDC(in[0]) + dctRound) >> (2 * dctBits))
		for i := range out {
			out[i] = dc
		}
		return
	}
	for i, v := range &px {
		out[i] = int32(v >> (2 * dctBits))
	}
}

// idctBlock is the inverse transform IDCT8x8 and IDCTPlaneRows share:
// px[y*8+x] = bias + Σv,u basis[v][y]·basis[u][x]·in[v*8+u], for the
// caller to shift; col is scratch. bias carries the rounding constant
// (and IDCTPlaneRows' level shift) through the sums. Both passes are
// idct8, the column pass over the columns that can be non-zero and the
// row pass over all rows, each with the two-term kernel when only its
// first two inputs can be: the column pass when no coefficient row past
// v = 1 is busy, the row pass when no column past u = 1 is. At q75 the
// row pass takes the two-term kernel for about 95 % of the blocks of a
// 1280×720 frame. A
// block with no coefficient but DC returns false and leaves px alone:
// see idctDC.
func idctBlock(px, col *[64]int64, in *[64]int32, bias int64) bool {
	// rows marks the busy rows of coefficients; c1 and c27 OR together
	// column 1 and columns 2-7 over all of them.
	var rows uint
	var c1, c27 int32
	for v := 0; v < 8; v++ {
		row := in[v*8 : v*8+8 : v*8+8]
		hi := row[2] | row[3] | row[4] | row[5] | row[6] | row[7]
		if row[0]|row[1]|hi != 0 {
			rows |= 1 << v
		}
		c1 |= row[1]
		c27 |= hi
	}
	if rows <= 1 && c1|c27 == 0 {
		return false
	}
	n := 2
	if c27 != 0 {
		n = 8
	}
	// col[u*8+y] = Σv basis[v][y]·in[v*8+u], then
	// px[y*8+x] = bias + Σu basis[u][x]·col[u*8+y].
	idct8(col, in, n, rows < 4, 0)
	idct8(px, col, 8, n == 2, bias)
	return true
}

// idct8 is the one exact 8-point inverse pass, applied to the first n
// columns of in and transposing: out[j*8+x] = bias + Σk basis[k][x]·in[k*8+j].
// It rests on the table identities TestBasisSymmetry pins. With e and o
// the even-k and odd-k half sums at x = 0..3, out[x] = e+o and
// out[7-x] = e-o. The even half is itself a 4-point transform with the
// same ± symmetry: basis[0] is flat and basis[4] is [c,-c,-c,c], so two
// products give their part at x = 0,3 and x = 1,2; basis[2] and
// basis[6] are antisymmetric about x ↔ 3-x, so four products give
// theirs at all four x. The odd half stays a 4×4 product: 22 products
// per vector, where the plain even/odd split takes 32. When short, only
// in's first two rows can be non-zero and the others are not read: the
// two-term kernel, 5 products.
func idct8[T int32 | int64](out *[64]int64, in *[64]T, n int, short bool, bias int64) {
	c0, b1 := int64(cosBasis[0][0]), &cosBasis[1]
	if short {
		for j := 0; j < n; j++ {
			e, t1 := bias+c0*int64(in[j]), int64(in[8+j])
			o0, o1, o2, o3 := int64(b1[0])*t1, int64(b1[1])*t1, int64(b1[2])*t1, int64(b1[3])*t1
			r := out[j*8 : j*8+8 : j*8+8]
			r[0], r[7] = e+o0, e-o0
			r[1], r[6] = e+o1, e-o1
			r[2], r[5] = e+o2, e-o2
			r[3], r[4] = e+o3, e-o3
		}
		return
	}
	c4 := int64(cosBasis[4][0])
	b2, b3, b5, b6, b7 := &cosBasis[2], &cosBasis[3], &cosBasis[5], &cosBasis[6], &cosBasis[7]
	for j := 0; j < n; j++ {
		t0, t1, t2, t3 := int64(in[j]), int64(in[8+j]), int64(in[16+j]), int64(in[24+j])
		t4, t5, t6, t7 := int64(in[32+j]), int64(in[40+j]), int64(in[48+j]), int64(in[56+j])
		a0, a4 := bias+c0*t0, c4*t4
		p, q := a0+a4, a0-a4 // x = 0, 3 and x = 1, 2
		r0 := int64(b2[0])*t2 + int64(b6[0])*t6
		r1 := int64(b2[1])*t2 + int64(b6[1])*t6
		e0, e1, e2, e3 := p+r0, q+r1, q-r1, p-r0
		o0 := int64(b1[0])*t1 + int64(b3[0])*t3 + int64(b5[0])*t5 + int64(b7[0])*t7
		o1 := int64(b1[1])*t1 + int64(b3[1])*t3 + int64(b5[1])*t5 + int64(b7[1])*t7
		o2 := int64(b1[2])*t1 + int64(b3[2])*t3 + int64(b5[2])*t5 + int64(b7[2])*t7
		o3 := int64(b1[3])*t1 + int64(b3[3])*t3 + int64(b5[3])*t5 + int64(b7[3])*t7
		r := out[j*8 : j*8+8 : j*8+8]
		r[0], r[7] = e0+o0, e0-o0
		r[1], r[6] = e1+o1, e1-o1
		r[2], r[5] = e2+o2, e2-o2
		r[3], r[4] = e3+o3, e3-o3
	}
}

// idctDC is the un-rounded value of every sample of a block whose only
// coefficient is dc: basis[0] is flat.
func idctDC(dc int32) int64 {
	return int64(cosBasis[0][0]) * int64(cosBasis[0][0]) * int64(dc)
}

// IDCTOpsPerBlock is the arithmetic operation count the cost model
// charges for one 8×8 inverse transform: two dense separable passes of
// 8×8 multiply-accumulates plus the rounding shifts. It is the model's
// charge, not the work IDCT8x8 or IDCTPlaneRows do (idct8 skips zeros
// and factors the even half); it stays unchanged so that sim cycles and
// every golden keep the original calibration (DESIGN.md §7).
const IDCTOpsPerBlock = 2*8*8*16 + 64

// IDCTOps returns the operation count for inverse-transforming a plane
// region of the given pixel count (which must cover whole blocks).
func IDCTOps(pixels int) int64 {
	return int64(pixels/64) * IDCTOpsPerBlock
}

// FDCTOps returns the operation count for forward-transforming pixels
// samples; the forward transform has the same structure as the inverse.
func FDCTOps(pixels int) int64 { return IDCTOps(pixels) }
