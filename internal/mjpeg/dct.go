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
var cosBasis = func() (b [8][8]int32) {
	for u := 0; u < 8; u++ {
		alpha := 0.5
		if u == 0 {
			alpha = math.Sqrt(1.0 / 8.0)
		}
		for x := 0; x < 8; x++ {
			v := alpha * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
			b[u][x] = int32(math.Round(v * (1 << dctBits)))
		}
	}
	return b
}()

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
	var col [64]int64
	n, equal := idctColumns(&col, in, 8, blockExtent(in))
	for y := 0; y < 8; y++ {
		ry := y
		if equal {
			ry = 0
		}
		x0, x1, x2, x3, x4, x5, x6, x7 := idctRow(&col, ry, n, dctRound)
		o := out[y*8 : y*8+8 : y*8+8]
		o[0], o[1], o[2], o[3] = int32(x0>>(2*dctBits)), int32(x1>>(2*dctBits)), int32(x2>>(2*dctBits)), int32(x3>>(2*dctBits))
		o[4], o[5], o[6], o[7] = int32(x4>>(2*dctBits)), int32(x5>>(2*dctBits)), int32(x6>>(2*dctBits)), int32(x7>>(2*dctBits))
	}
}

// idctColumns is the column pass of the inverse transform IDCT8x8 and
// IDCTPlaneRows share: col[y*8+u] = Σv basis[v][y]·c[v][u], where
// c[v][u] is in[v*stride+u] inside the block's extent ext (see
// CoeffPlane) and zero outside it, whatever in holds there. stride is 8
// for a dense block and the extent's column count for a packed record
// (at most 8, so every v*stride+u lies in in's 64 slots). The extent
// picks the work. The pass covers the first n columns, n = 1 when no
// column past 0 can be non-zero, 2 when none past 1 can and 8 otherwise,
// and returns n for the row pass (idctRow), which reads no other column
// of col. Each column takes idct2 when no row past 1 can be non-zero.
// basis[0] is flat, so when only row 0 can be, every row of the block
// is the same: equal is then true and only row 0 of col is filled. In
// a 1280×720 q75 frame of the synthetic video, 17 % of the blocks have
// equal rows, 17 % have n = 1 (flat rows; 16 % are 2×1), 61 % are 2×2,
// which IDCTPlaneRows runs without col or this pass when its corners
// are in range (then two pixels per product; see IDCTPlaneRows), and
// 6 % need idct8.
func idctColumns(col *[64]int64, in *[64]int32, stride int, ext uint8) (n int, equal bool) {
	rows, cols := int(ext&15), int(ext>>4)
	n = 8
	if cols <= 2 {
		n = max(cols, 1)
	}
	if rows == 0 {
		cols = 0
	}
	if rows <= 1 {
		for u := 0; u < cols; u++ {
			col[u] = k0 * int64(in[u])
		}
		for u := cols; u < n; u++ {
			col[u] = 0
		}
		return n, true
	}
	// Past row 2, row v of a column is read and masked with mv: -1 for a
	// row inside the extent, 0 for one past it, where in need not hold
	// zeros (a packed record is followed by the next one).
	m3, m4, m5, m6, m7 := rowMask(3, rows), rowMask(4, rows), rowMask(5, rows), rowMask(6, rows), rowMask(7, rows)
	for u := 0; u < n; u++ {
		var x0, x1, x2, x3, x4, x5, x6, x7 int64 // a column past cols is zero
		switch {
		case u >= cols:
		case rows == 2:
			x0, x1, x2, x3, x4, x5, x6, x7 = idct2(int64(in[u]), int64(in[stride+u]), 0)
		default:
			x0, x1, x2, x3, x4, x5, x6, x7 = idct8(int64(in[u]), int64(in[stride+u]), int64(in[2*stride+u]),
				int64(in[3*stride+u])&m3, int64(in[4*stride+u])&m4, int64(in[5*stride+u])&m5,
				int64(in[6*stride+u])&m6, int64(in[7*stride+u])&m7, 0)
		}
		col[u], col[8+u], col[16+u], col[24+u] = x0, x1, x2, x3
		col[32+u], col[40+u], col[48+u], col[56+u] = x4, x5, x6, x7
	}
	return n, false
}

// rowMask is -1 when row v lies inside an extent of the given rows, and
// 0 when it lies past it.
func rowMask(v, rows int) int64 { return ^(int64(rows-1-v) >> 63) }

// idctRow is the row pass at row y of the col idctColumns filled with
// width n: sample x is bias + Σu<n basis[u][x]·col[y*8+u]. bias carries
// the rounding constant (and IDCTPlaneRows' level shift) through the
// sums, for the caller to shift.
func idctRow(col *[64]int64, y, n int, bias int64) (x0, x1, x2, x3, x4, x5, x6, x7 int64) {
	r := col[y*8 : y*8+8 : y*8+8]
	switch n {
	case 1:
		return idct2(r[0], 0, bias)
	case 2:
		return idct2(r[0], r[1], bias)
	}
	return idct8(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], bias)
}

// The basis values idct8 and idct2 multiply by, as constants (so each
// product is one multiply by an immediate): k0 is basis[0][0] and
// basis[4][0], ka..kd are basis[1][0..3], and kp, kq are
// basis[2][0..1]. TestBasisSymmetry checks them against cosBasis.
const (
	k0             int64 = 1448
	ka, kb, kc, kd int64 = 2009, 1703, 1138, 400
	kp, kq         int64 = 1892, 784
)

// idct8 is the one exact 8-point inverse pass: x_i = bias + Σk
// basis[k][i]·t_k. It rests on the table identities TestBasisSymmetry
// pins. With e and o the even-k and odd-k half sums at i = 0..3,
// x_i = e+o and x_(7-i) = e-o. The even half is itself a 4-point
// transform with the same ± symmetry: basis[0] is flat and basis[4] is
// [c,-c,-c,c], so two products give their part at i = 0,3 and i = 1,2.
// basis[6][0..1] is [kq,-kp], the reverse of basis[2][0..1] = [kp,kq]
// with one sign flipped, so r0 = kp·t2 + kq·t6 and r1 = kq·t2 − kp·t6
// share the product kq·(t2+t6):
//
//	r0 = kq·(t2+t6) + (kp−kq)·t2,  r1 = kq·(t2+t6) − (kp+kq)·t6.
//
// The odd basis rows basis[3], basis[5] and basis[7] are signed
// permutations of basis[1] = [ka,kb,kc,kd], so o0..o3 split into pairs
// of that form over (t1,t7) and (t3,t5): o0 and o3 hold ka·t1 + kd·t7
// and kd·t1 − ka·t7, which share kd·(t1+t7), and kb·t3 + kc·t5 and
// kb·t5 − kc·t3, which share kc·(t3+t5); o1 and o2 hold kb·t1 − kc·t7
// and kc·t1 + kb·t7, which share kc·(t1+t7), and −kd·t3 − ka·t5 and
// kd·t5 − ka·t3, which share kd·(t3+t5). Three products a pair, where
// the direct sums take four: 17 products, 5 for the even half and 12
// for the odd, where the plain even/odd split takes 32. The identities
// hold in the int64 ring, so wrap-around changes nothing.
func idct8(t0, t1, t2, t3, t4, t5, t6, t7, bias int64) (x0, x1, x2, x3, x4, x5, x6, x7 int64) {
	a0, a4 := bias+k0*t0, k0*t4
	p, q := a0+a4, a0-a4 // i = 0, 3 and i = 1, 2
	z26 := kq * (t2 + t6)
	r0, r1 := z26+(kp-kq)*t2, z26-(kp+kq)*t6
	e0, e1, e2, e3 := p+r0, q+r1, q-r1, p-r0
	z17, z35 := kd*(t1+t7), kc*(t3+t5) // o0 and o3
	o0 := z17 + (ka-kd)*t1 + z35 + (kb-kc)*t3
	o3 := z17 - (ka+kd)*t7 + (kb+kc)*t5 - z35
	y17, y35 := kc*(t1+t7), kd*(t3+t5) // o1 and o2
	o1 := (kb+kc)*t1 - y17 - y35 - (ka-kd)*t5
	o2 := y17 + (kb-kc)*t7 + y35 - (ka+kd)*t3
	return e0 + o0, e1 + o1, e2 + o2, e3 + o3, e3 - o3, e2 - o2, e1 - o1, e0 - o0
}

// idct2 is idct8 with t2..t7 zero, the two-term form: 5 products.
func idct2(t0, t1, bias int64) (x0, x1, x2, x3, x4, x5, x6, x7 int64) {
	e := bias + k0*t0
	o0, o1, o2, o3 := ka*t1, kb*t1, kc*t1, kd*t1
	return e + o0, e + o1, e + o2, e + o3, e - o3, e - o2, e - o1, e - o0
}

// lanes2[k] is basis[1][k] in the low 32-bit lane and basis[1][k+4] in
// the high one, mod 2^64: times b it adds basis[1][k]·b + basis[1][k+4]·b·2^32,
// the odd halves of pixels k and k+4 of a 2×2 block's row in one product.
var lanes2 = func() (l [4]uint64) {
	for k := range l {
		l[k] = uint64(int64(cosBasis[1][k])) + uint64(int64(cosBasis[1][k+4]))<<32
	}
	return l
}()

// IDCTOpsPerBlock is the arithmetic operation count the cost model
// charges for one 8×8 inverse transform: two dense separable passes of
// 8×8 multiply-accumulates plus the rounding shifts. It is the model's
// charge, not the work IDCT8x8 or IDCTPlaneRows do (the extent skips
// zeros, and idct8 takes 17 products); it stays unchanged so that sim
// cycles and every golden keep the original calibration (DESIGN.md §7).
const IDCTOpsPerBlock = 2*8*8*16 + 64

// IDCTOps returns the operation count for inverse-transforming a plane
// region of the given pixel count (which must cover whole blocks).
func IDCTOps(pixels int) int64 {
	return int64(pixels/64) * IDCTOpsPerBlock
}

// FDCTOps returns the operation count for forward-transforming pixels
// samples; the forward transform has the same structure as the inverse.
func FDCTOps(pixels int) int64 { return IDCTOps(pixels) }
