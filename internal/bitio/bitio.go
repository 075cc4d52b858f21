// Package bitio provides the MSB-first bit writer and the bit-window
// refill of the MJPEG entropy coder. Bits are packed
// most-significant-bit first within each byte, matching the JPEG
// bitstream convention (but without JPEG's 0xFF byte stuffing, since
// this codec defines its own container). A reader keeps its window —
// byte position, accumulator and bit count — in its own locals and tops
// it up with Fill.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOverrun is the error of a read that runs past the end of the
// stream.
var ErrOverrun = errors.New("bitio: read past end of stream")

// Writer accumulates bits MSB-first into a byte buffer.
type Writer struct {
	buf  []byte
	cur  uint32
	ncur uint // number of valid bits in cur (< 8)
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Reset discards any pending bits and makes w append to buf, so one
// Writer (and buf's backing array) can serve many encode passes. Pass
// the result of Bytes back in to keep appending after a flush, or a
// caller-owned slice to write directly into it.
func (w *Writer) Reset(buf []byte) { w.buf, w.cur, w.ncur = buf, 0, 0 }

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 32] and v must fit in n bits.
func (w *Writer) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d", n))
	}
	if n < 32 && v>>n != 0 {
		panic("bitio: value does not fit in n bits")
	}
	for n > 0 {
		take := 8 - w.ncur
		if take > n {
			take = n
		}
		chunk := (v >> (n - take)) & ((1 << take) - 1)
		w.cur = (w.cur << take) | chunk
		w.ncur += take
		n -= take
		if w.ncur == 8 {
			w.buf = append(w.buf, byte(w.cur))
			w.cur, w.ncur = 0, 0
		}
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b uint32) { w.WriteBits(b&1, 1) }

// Len returns the number of whole bits written so far.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.ncur) }

// Bytes flushes any partial byte (padding with 1-bits, as JPEG does)
// and returns the accumulated buffer. The Writer may not be used after
// Bytes is called.
func (w *Writer) Bytes() []byte {
	if w.ncur > 0 {
		pad := 8 - w.ncur
		w.cur = (w.cur << pad) | ((1 << pad) - 1)
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.ncur = 0, 0
	}
	return w.buf
}

// Fill tops up a bit window over buf that has loaded buf[:pos]: acc
// holds its n unread bits (n ≤ 63) most significant first, and the bits
// below them are buf's own, or zero once buf is used up.
// It returns the window with at least 56 bits, or with the rest of buf
// when fewer remain, so a window left with fewer than 56 bits is at
// buf's end and reads zeros past it. Bits a wide load leaves below n
// are the stream's own, so loading them again later is idempotent.
// Small enough to inline, so a caller's window stays in registers.
func Fill(buf []byte, pos int, acc uint64, n uint) (int, uint64, uint) {
	if pos+8 <= len(buf) {
		return pos + int((63-n)>>3), acc | binary.BigEndian.Uint64(buf[pos:])>>n, n | 56
	}
	for n < 56 && pos < len(buf) {
		acc |= uint64(buf[pos]) << (56 - n)
		pos++
		n += 8
	}
	return pos, acc, n
}
