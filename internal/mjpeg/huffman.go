package mjpeg

import (
	"errors"
	"fmt"

	"xspcl/internal/bitio"
)

// huffSpec is a Huffman table in JPEG DHT form: counts[i] is the number
// of codes of length i+1, and symbols lists the coded symbols in
// canonical order.
type huffSpec struct {
	counts  [16]int
	symbols []byte
}

// The four standard tables from JPEG Annex K.
var (
	dcLumaSpec = huffSpec{
		counts:  [16]int{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
		symbols: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	dcChromaSpec = huffSpec{
		counts:  [16]int{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		symbols: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	acLumaSpec = huffSpec{
		counts: [16]int{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125},
		symbols: []byte{
			0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
			0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
			0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
			0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0,
			0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16,
			0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
			0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
			0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
			0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
			0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
			0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
			0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
			0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
			0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,
			0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
			0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5,
			0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4,
			0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
			0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea,
			0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	}
	acChromaSpec = huffSpec{
		counts: [16]int{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119},
		symbols: []byte{
			0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
			0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
			0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
			0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0,
			0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34,
			0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
			0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38,
			0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
			0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
			0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
			0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
			0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
			0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96,
			0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
			0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
			0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3,
			0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2,
			0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
			0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9,
			0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	}
)

// huffEncoder maps symbols to canonical Huffman codes.
type huffEncoder struct {
	code [256]uint32
	size [256]uint8
}

// lookBits is the width of the decoder's lookahead table: a code of up
// to lookBits bits (every DC code and all but the rarest AC codes of
// the Annex-K tables) is found with one table read, and so is the
// value of its magnitude when code and magnitude fit in lookBits bits
// together.
const lookBits = 11

var errInvalidCode = errors.New("mjpeg: invalid Huffman code")

// huffWord is what the code at the head of a stream decodes to, packed
// into one word so that a lookahead read is one load:
//
//	bits 0-5   n, the bits to consume: code and magnitude together
//	bits 8-15  the symbol
//	bits 16-31 the value of the magnitude bits after the code (as many
//	           as the symbol's low nibble says: a DC category, or an AC
//	           size), extended and signed
//
// A lookahead word whose code or magnitude does not fit in the index
// has n = 0, which marks it, and holds the code length l in bits 16-31
// instead of the value (l = 0 when the code is longer than lookBits).
// resolve always returns a word with n and the value set.
type huffWord uint32

// makeWord packs n, the symbol and v (a magnitude value, or the code
// length of a word with n = 0).
func makeWord(n uint, sym byte, v int32) huffWord {
	return huffWord(uint32(v)<<16 | uint32(sym)<<8 | uint32(n))
}

// n is the bits to consume, 0 when the magnitude is not in the word.
// The mask keeps a shift by n a single instruction.
func (w huffWord) n() uint { return uint(w) & 63 }

func (w huffWord) sym() byte { return byte(w >> 8) }

// value is the extended magnitude value of a word with n set.
func (w huffWord) value() int32 { return int32(w) >> 16 }

// codeLen is the length of the word's code: the field a word with n = 0
// holds instead of the value, and n less the magnitude bits otherwise.
func (w huffWord) codeLen() uint {
	if w.n() == 0 {
		return uint(w >> 16)
	}
	return w.n() - uint(w.sym()&0x0f)
}

// huffDecoder decodes canonical Huffman codes: look maps the next
// lookBits bits of the stream to their huffWord, and the classic
// mincode/maxcode/valptr tables (ITU-T T.81 §F.2.2.3) resolve the longer
// codes.
type huffDecoder struct {
	look    [1 << lookBits]huffWord
	mincode [17]int32
	maxcode [17]int32 // -1 when no codes of this length
	valptr  [17]int32
	symbols []byte
}

func newHuffEncoder(spec *huffSpec) *huffEncoder {
	e := &huffEncoder{}
	code := uint32(0)
	k := 0
	for l := 1; l <= 16; l++ {
		for i := 0; i < spec.counts[l-1]; i++ {
			sym := spec.symbols[k]
			e.code[sym] = code
			e.size[sym] = uint8(l)
			code++
			k++
		}
		code <<= 1
	}
	return e
}

func newHuffDecoder(spec *huffSpec) *huffDecoder {
	d := &huffDecoder{symbols: spec.symbols}
	code := int32(0)
	k := int32(0)
	for l := 1; l <= 16; l++ {
		if spec.counts[l-1] == 0 {
			d.maxcode[l] = -1
			code <<= 1
			continue
		}
		d.valptr[l] = k
		d.mincode[l] = code
		if l <= lookBits {
			// A code of l bits owns every lookahead index it prefixes;
			// the rest bits of index first+j after it are j.
			rest := lookBits - l
			for i := 0; i < spec.counts[l-1]; i++ {
				sym := spec.symbols[int(k)+i]
				first := (int(code) + i) << rest
				for j := 0; j < 1<<rest; j++ {
					w := makeWord(0, sym, int32(l))
					if size := sym & 0x0f; int(size) <= rest {
						w = makeWord(uint(l)+uint(size), sym, extendMagnitude(uint32(j>>(rest-int(size))), uint(size)))
					}
					d.look[first+j] = w
				}
			}
		}
		code += int32(spec.counts[l-1])
		k += int32(spec.counts[l-1])
		d.maxcode[l] = code - 1
		code <<= 1
	}
	return d
}

// encode writes the code for sym.
func (e *huffEncoder) encode(w *bitio.Writer, sym byte) {
	if e.size[sym] == 0 {
		panic(fmt.Sprintf("mjpeg: symbol %#x has no Huffman code", sym))
	}
	w.WriteBits(e.code[sym], uint(e.size[sym]))
}

// resolve returns the word of the code at the head of the bit window
// (acc, n), its n and value always set: it is the lookahead read for the
// codes and magnitudes the table leaves out (a lookahead word with n = 0
// still gives the length of a code of up to lookBits bits), and the
// decoder's fallback. The window holds at least 32 bits, or the rest of
// the stream with zeros below it (see bitio.Fill). Sixteen bits that
// prefix no code are invalid, or a bitio.ErrOverrun when the stream is
// too short to rule a code out. Bits past the end of the stream read as
// zero, so a word may describe more bits than are left: consuming it is
// what overruns.
func (d *huffDecoder) resolve(acc uint64, n uint) (huffWord, error) {
	w := d.look[acc>>(64-lookBits)]
	if w.n() != 0 {
		return w, nil
	}
	sym, l := w.sym(), w.codeLen()
	if l == 0 {
		code := int32(acc >> 48)
		for cl := lookBits + 1; cl <= 16; cl++ {
			if c := code >> (16 - cl); c <= d.maxcode[cl] && c >= d.mincode[cl] {
				sym, l = d.symbols[d.valptr[cl]+c-d.mincode[cl]], uint(cl)
				break
			}
		}
		if l == 0 {
			if n < 16 {
				return 0, bitio.ErrOverrun
			}
			return 0, errInvalidCode
		}
	}
	size := uint(sym & 0x0f)
	return makeWord(l+size, sym, extendMagnitude(uint32(acc>>(64-l-size))&(1<<size-1), size)), nil
}

// Shared table instances; the codec state is all in the bit streams, so
// the encoders/decoders are safe for concurrent use (they are
// read-only after construction).
var (
	dcLumaEnc   = newHuffEncoder(&dcLumaSpec)
	dcChromaEnc = newHuffEncoder(&dcChromaSpec)
	acLumaEnc   = newHuffEncoder(&acLumaSpec)
	acChromaEnc = newHuffEncoder(&acChromaSpec)
	dcLumaDec   = newHuffDecoder(&dcLumaSpec)
	dcChromaDec = newHuffDecoder(&dcChromaSpec)
	acLumaDec   = newHuffDecoder(&acLumaSpec)
	acChromaDec = newHuffDecoder(&acChromaSpec)
)

// bitCategory returns the JPEG magnitude category of v: the number of
// bits needed to represent |v|.
func bitCategory(v int32) uint {
	if v < 0 {
		v = -v
	}
	n := uint(0)
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// magnitudeBits returns the JPEG variable-length-integer encoding of v
// in the given category: positive values verbatim, negative values as
// v + 2^cat − 1.
func magnitudeBits(v int32, cat uint) uint32 {
	if v >= 0 {
		return uint32(v)
	}
	return uint32(v + (1 << cat) - 1)
}

// extendMagnitude is the inverse of magnitudeBits (T.81 EXTEND).
func extendMagnitude(bits uint32, cat uint) int32 {
	if cat == 0 {
		return 0
	}
	if bits < 1<<(cat-1) {
		return int32(bits) - int32(1<<cat) + 1
	}
	return int32(bits)
}
