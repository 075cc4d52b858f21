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
	"math/bits"
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
	var tmp [8][8]int64
	n := idctColumns(&tmp, in)
	if n == 0 {
		dc := int32((idctDC(in[0]) + dctRound) >> (2 * dctBits))
		for i := range out {
			out[i] = dc
		}
		return
	}
	var row [8]int64
	for y := range tmp {
		idctRow(&row, &tmp[y], n, dctRound)
		for x := range row {
			out[y*8+x] = int32(row[x] >> (2 * dctBits))
		}
	}
}

// idctColumns is the column pass tmp[y][u] = Σv basis[v][y]·in[v][u].
// A zero coefficient costs a test, a zero row of coefficients one test
// for the eight. It returns how many leading columns of tmp can be
// non-zero, which is where the row pass may stop, or 0 for a block with
// no coefficient but DC, whose tmp is then not filled in: see idctDC.
func idctColumns(tmp *[8][8]int64, in *[64]int32) int {
	// h[u] holds column u's even-v half sums for y = 0..3 in [0:4] and
	// its odd-v half sums in [4:8].
	var h [8][8]int64
	var rows, cols uint
	for v := 0; v < 8; v++ {
		row := in[v*8 : v*8+8 : v*8+8]
		if row[0]|row[1]|row[2]|row[3]|row[4]|row[5]|row[6]|row[7] == 0 {
			continue
		}
		rows |= 1 << v
		b, odd := &cosBasis[v], (v&1)*4
		for u, c := range row {
			if c == 0 {
				continue
			}
			cols |= 1 << u
			a := h[u][odd : odd+4 : odd+4]
			a[0] += int64(b[0]) * int64(c)
			a[1] += int64(b[1]) * int64(c)
			a[2] += int64(b[2]) * int64(c)
			a[3] += int64(b[3]) * int64(c)
		}
	}
	if rows|cols <= 1 {
		return 0
	}
	n := bits.Len(cols)
	for u := 0; u < n; u++ {
		a := &h[u]
		for y := 0; y < 4; y++ {
			tmp[y][u], tmp[7-y][u] = a[y]+a[4+y], a[y]-a[4+y]
		}
	}
	return n
}

// idctDC is the un-rounded value of every sample of a block whose only
// coefficient is dc: basis[0] is flat.
func idctDC(dc int32) int64 {
	return int64(cosBasis[0][0]) * int64(cosBasis[0][0]) * int64(dc)
}

// idctRow is the row pass for one row: out[x] = bias + Σu basis[u][x]·t[u]
// over the first n columns; the caller shifts. bias carries the
// rounding constant (and IDCTPlaneRows' level shift) through the sums.
func idctRow(out, t *[8]int64, n int, bias int64) {
	e0, e1, e2, e3 := bias, bias, bias, bias
	var o0, o1, o2, o3 int64
	for u := 0; u < n; u += 2 {
		b, c := &cosBasis[u&7], t[u&7]
		e0 += int64(b[0]) * c
		e1 += int64(b[1]) * c
		e2 += int64(b[2]) * c
		e3 += int64(b[3]) * c
	}
	for u := 1; u < n; u += 2 {
		b, c := &cosBasis[u&7], t[u&7]
		o0 += int64(b[0]) * c
		o1 += int64(b[1]) * c
		o2 += int64(b[2]) * c
		o3 += int64(b[3]) * c
	}
	out[0], out[7] = e0+o0, e0-o0
	out[1], out[6] = e1+o1, e1-o1
	out[2], out[5] = e2+o2, e2-o2
	out[3], out[4] = e3+o3, e3-o3
}

// IDCTOpsPerBlock is the arithmetic operation count charged by the cost
// model for one 8×8 inverse transform: two separable passes of 8×8
// multiply-accumulates plus the rounding shifts.
const IDCTOpsPerBlock = 2*8*8*16 + 64

// IDCTOps returns the operation count for inverse-transforming a plane
// region of the given pixel count (which must cover whole blocks).
func IDCTOps(pixels int) int64 {
	return int64(pixels/64) * IDCTOpsPerBlock
}

// FDCTOps returns the operation count for forward-transforming pixels
// samples; the forward transform has the same structure as the inverse.
func FDCTOps(pixels int) int64 { return IDCTOps(pixels) }
