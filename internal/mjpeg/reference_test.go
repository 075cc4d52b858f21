package mjpeg

// Reference implementations the optimised codec must match bit for bit:
// the dense basis-matrix transforms and the bit-serial entropy decoder
// this package shipped before the sparse IDCT and the lookahead-table
// Huffman decoder replaced them. Kept deliberately naive.

import (
	"encoding/binary"
	"fmt"

	"xspcl/internal/bitio"
	"xspcl/internal/media"
)

func refFDCT8x8(out, in *[64]int32) {
	var tmp [64]int64
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var acc int64
			for x := 0; x < 8; x++ {
				acc += int64(cosBasis[u][x]) * int64(in[y*8+x])
			}
			tmp[y*8+u] = acc
		}
	}
	const round = 1 << (2*dctBits - 1)
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var acc int64
			for y := 0; y < 8; y++ {
				acc += int64(cosBasis[v][y]) * tmp[y*8+u]
			}
			out[v*8+u] = int32((acc + round) >> (2 * dctBits))
		}
	}
}

func refIDCT8x8(out, in *[64]int32) {
	var tmp [64]int64
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var acc int64
			for v := 0; v < 8; v++ {
				acc += int64(cosBasis[v][y]) * int64(in[v*8+u])
			}
			tmp[y*8+u] = acc
		}
	}
	const round = 1 << (2*dctBits - 1)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var acc int64
			for u := 0; u < 8; u++ {
				acc += int64(cosBasis[u][x]) * tmp[y*8+u]
			}
			out[y*8+x] = int32((acc + round) >> (2 * dctBits))
		}
	}
}

// refIDCTPlaneRows inverse-transforms pixel rows [r0, r1) of a w-wide
// plane of dense blocks (see refCoeffFrame) into dst.
func refIDCTPlaneRows(dst []uint8, dense []int32, w, r0, r1 int) {
	var blk, pix [64]int32
	for by := r0 / 8; by < (r1+7)/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			copy(blk[:], dense[(by*(w/8)+bx)*64:])
			refIDCT8x8(&pix, &blk)
			for y := 0; y < 8; y++ {
				row := dst[(by*8+y)*w+bx*8:]
				for x := 0; x < 8; x++ {
					v := pix[y*8+x] + 128
					if v < 0 {
						v = 0
					} else if v > 255 {
						v = 255
					}
					row[x] = uint8(v)
				}
			}
		}
	}
}

// refBitReader is the byte-loop MSB-first reader.
type refBitReader struct {
	buf  []byte
	pos  int
	cur  uint32
	ncur uint
}

func (r *refBitReader) readBits(n uint) (uint32, error) {
	var v uint32
	for n > 0 {
		if r.ncur == 0 {
			if r.pos >= len(r.buf) {
				return 0, bitio.ErrOverrun
			}
			r.cur = uint32(r.buf[r.pos])
			r.pos++
			r.ncur = 8
		}
		take := r.ncur
		if take > n {
			take = n
		}
		chunk := (r.cur >> (r.ncur - take)) & ((1 << take) - 1)
		v = (v << take) | chunk
		r.ncur -= take
		n -= take
	}
	return v, nil
}

func (r *refBitReader) bitsRead() int { return r.pos*8 - int(r.ncur) }

// refHuffDecode is the bit-serial mincode/maxcode walk of T.81 §F.2.2.3.
func refHuffDecode(d *huffDecoder, r *refBitReader) (byte, error) {
	code := int32(0)
	for l := 1; l <= 16; l++ {
		b, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(b)
		if d.maxcode[l] >= 0 && code <= d.maxcode[l] && code >= d.mincode[l] {
			return d.symbols[d.valptr[l]+code-d.mincode[l]], nil
		}
	}
	return 0, errInvalidCode
}

// refCoeffFrame is a decoded frame in the dense layout: block (bx, by)
// of a w-wide plane is the 64 coefficients at (by·(w/8)+bx)·64 of its
// Planes entry, in natural order.
type refCoeffFrame struct {
	W, H   int
	Planes [3][]int32
	Stats  DecodeStats
}

func refDecodeEntropy(data []byte) (*refCoeffFrame, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	cf := &refCoeffFrame{W: h.W, H: h.H}
	pos := 9
	for i, pl := range media.Planes {
		pw, ph := media.PlaneDims(pl, h.W, h.H)
		if pos+4 > len(data) {
			return nil, fmt.Errorf("mjpeg: truncated frame (plane %s length)", pl)
		}
		n := int(binary.BigEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return nil, fmt.Errorf("mjpeg: truncated frame (plane %s data)", pl)
		}
		dense, stats, err := refDecodePlaneEntropy(data[pos:pos+n], pw, ph, pl == media.PlaneY, h.Quality)
		if err != nil {
			return nil, fmt.Errorf("mjpeg: plane %s: %w", pl, err)
		}
		pos += n
		cf.Planes[i] = dense
		cf.Stats.Symbols += stats.Symbols
		cf.Stats.Bits += stats.Bits
		cf.Stats.NonZero += stats.NonZero
	}
	return cf, nil
}

func refDecodePlaneEntropy(bits []byte, w, h int, luma bool, quality int) ([]int32, DecodeStats, error) {
	q := quantTable(luma, quality)
	dcDec, acDec := dcChromaDec, acChromaDec
	if luma {
		dcDec, acDec = dcLumaDec, acLumaDec
	}
	dense := make([]int32, w*h)
	br := &refBitReader{buf: bits}
	var stats DecodeStats
	pred := int32(0)
	for by := 0; by < h/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			blk := dense[(by*(w/8)+bx)*64:][:64]
			sym, err := refHuffDecode(dcDec, br)
			if err != nil {
				return nil, stats, err
			}
			stats.Symbols++
			cat := uint(sym)
			var diff int32
			if cat > 0 {
				mb, err := br.readBits(cat)
				if err != nil {
					return nil, stats, err
				}
				diff = extendMagnitude(mb, cat)
			}
			pred += diff
			blk[0] = pred * q[0]
			if blk[0] != 0 {
				stats.NonZero++
			}
			for i := 1; i < 64; {
				sym, err := refHuffDecode(acDec, br)
				if err != nil {
					return nil, stats, err
				}
				stats.Symbols++
				if sym == 0x00 { // EOB
					break
				}
				if sym == 0xf0 { // ZRL
					i += 16
					continue
				}
				run := int(sym >> 4)
				c := uint(sym & 0x0f)
				i += run
				if i >= 64 {
					return nil, stats, errRunOverflow
				}
				mb, err := br.readBits(c)
				if err != nil {
					return nil, stats, err
				}
				nat := zigzag[i]
				blk[nat] = extendMagnitude(mb, c) * q[nat]
				stats.NonZero++
				i++
			}
		}
	}
	stats.Bits = br.bitsRead()
	return dense, stats, nil
}
