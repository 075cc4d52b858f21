package mjpeg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"xspcl/internal/bitio"
	"xspcl/internal/media"
)

// frameMagic starts every encoded frame.
var frameMagic = [4]byte{'X', 'J', 'F', '1'}

// Header describes an encoded frame.
type Header struct {
	W, H    int // luma dimensions; must be multiples of 8 (chroma of the 4:2:0 frame then covers whole blocks too)
	Quality int // 1..100
}

// DecodeStats summarises the entropy-decoding work of a frame; the
// SpaceCAKE cost model charges the decode component in proportion to
// the symbols and refinement bits actually decoded.
type DecodeStats struct {
	Symbols int // Huffman symbols decoded
	Bits    int // total bitstream bits consumed
	NonZero int // non-zero coefficients produced
}

// EntropyOpsPerSymbol and EntropyOpsPerBit are the operation counts the
// cost model charges for entropy decoding: a bit-serial tree walk plus
// run/magnitude bookkeeping per symbol, and a shift/mask per bitstream
// bit. They are the model's charge, not the work decodePlaneEntropy
// does (one lookahead read per symbol, the bits taken a window at a
// time); they stay unchanged so that sim cycles and every golden keep
// the original calibration (DESIGN.md §7).
const (
	EntropyOpsPerSymbol = 12
	EntropyOpsPerBit    = 2
)

// EntropyOps converts decode statistics into the arithmetic operation
// count charged by the cost model.
func EntropyOps(s DecodeStats) int64 {
	return int64(s.Symbols)*EntropyOpsPerSymbol + int64(s.Bits)*EntropyOpsPerBit
}

// EntropyOpsEstimate predicts EntropyOps for a w×h frame without
// decoding it, for workless simulation runs. The constants reflect the
// measured average density of the synthetic video at the default
// quality (~1.0 bits/pixel total, ~4 symbols per block).
func EntropyOpsEstimate(w, h int) int64 {
	pixels := int64(w*h) * 3 / 2
	blocks := pixels / 64
	return blocks*6*EntropyOpsPerSymbol + pixels*EntropyOpsPerBit
}

// CoeffPlane holds the dequantised DCT coefficients of one plane,
// packed: each block keeps only the coefficients its extent covers.
// The plane is W×H pixels (multiples of 8).
//
// Ext[b] is the extent of block b (blocks in raster order): its low
// nibble counts the leading coefficient rows, and its high nibble the
// leading columns, that may hold a non-zero coefficient (each at most
// 8). Every coefficient outside the extent is zero and is not stored.
//
// Coef holds one record per block, back to back in raster order: block
// b's rows×cols coefficients, row-major. Row[by] is the offset in Coef
// of block row by's first record, and Row[H/8] ends the plane. Coef has
// room for all 64 coefficients of every block, and Row[by] ≤ 64·by·(W/8)
// always, even after a decode that failed midway: so block b's record
// starts at or before 64·b, and the 64 slots from there lie inside Coef
// whatever Ext holds.
type CoeffPlane struct {
	W, H int
	Ext  []uint8
	Row  []int32
	Coef []int32
}

// NewCoeffPlane allocates an empty coefficient plane: every extent is
// zero, so every block inverse-transforms to flat mid-grey.
func NewCoeffPlane(w, h int) *CoeffPlane {
	if w%8 != 0 || h%8 != 0 || w*h > math.MaxInt32 {
		panic(fmt.Sprintf("mjpeg: coeff plane %dx%d not block aligned or too large", w, h))
	}
	return &CoeffPlane{W: w, H: h, Ext: make([]uint8, w*h/64), Row: make([]int32, h/8+1), Coef: make([]int32, w*h)}
}

// blockExtent is the tightest extent of blk.
func blockExtent(blk *[64]int32) uint8 {
	var m uint16
	for i, c := range blk {
		if c != 0 {
			m |= coeffMask(i)
		}
	}
	return maskExtent(m)
}

// coeffMask marks the row of natural index i in bit i/8 and its column
// in bit 8+i%8; maskExtent turns an OR of such marks into an extent.
func coeffMask(i int) uint16 { return 1<<(i/8) | 1<<(8+i%8) }

func maskExtent(m uint16) uint8 {
	return uint8(bits.Len8(uint8(m))) | uint8(bits.Len8(uint8(m>>8)))<<4
}

// Bytes returns the memory footprint of the plane's coefficients: the
// room Coef keeps, not the part a decode fills.
func (p *CoeffPlane) Bytes() int { return len(p.Coef) * 4 }

// CoeffFrame is the output of the entropy-decode stage: one coefficient
// plane per color plane, plus the decode statistics.
type CoeffFrame struct {
	W, H   int
	Planes [3]*CoeffPlane
	Stats  DecodeStats
}

// NewCoeffFrame allocates an empty coefficient frame for a w×h picture
// (multiples of 16, so every 4:2:0 plane covers whole blocks).
func NewCoeffFrame(w, h int) *CoeffFrame {
	cf := &CoeffFrame{W: w, H: h}
	for i, pl := range media.Planes {
		cf.Planes[i] = NewCoeffPlane(media.PlaneDims(pl, w, h))
	}
	return cf
}

// Bytes returns the total coefficient footprint of the frame.
func (c *CoeffFrame) Bytes() int {
	n := 0
	for _, p := range c.Planes {
		n += p.Bytes()
	}
	return n
}

// Encode compresses a frame at the given quality (1..100). The frame's
// dimensions must be multiples of 16 so every 4:2:0 plane covers whole
// 8×8 blocks.
func Encode(f *media.Frame, quality int) ([]byte, error) {
	if f.W%16 != 0 || f.H%16 != 0 {
		return nil, fmt.Errorf("mjpeg: frame %dx%d not macroblock aligned", f.W, f.H)
	}
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("mjpeg: quality %d out of range", quality)
	}
	return appendEncode(make([]byte, 0, f.Bytes()/4), f, quality)
}

// appendEncode encodes f onto dst and returns the extended slice. The
// plane bitstreams are written straight into dst through a rebound
// bitio.Writer — no per-plane scratch buffer, no copy — with each
// plane's u32 length backfilled once its size is known.
func appendEncode(dst []byte, f *media.Frame, quality int) ([]byte, error) {
	dst = append(dst, frameMagic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.W))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.H))
	dst = append(dst, byte(quality))
	var bw bitio.Writer
	for _, pl := range media.Planes {
		data, w, h := f.Plane(pl)
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		bw.Reset(dst)
		encodePlane(&bw, data, w, h, pl == media.PlaneY, quality)
		dst = bw.Bytes()
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst, nil
}

func encodePlane(bw *bitio.Writer, data []uint8, w, h int, luma bool, quality int) {
	q := quantTable(luma, quality)
	dcEnc, acEnc := dcChromaEnc, acChromaEnc
	if luma {
		dcEnc, acEnc = dcLumaEnc, acLumaEnc
	}
	var block, freq [64]int32
	pred := int32(0)
	for by := 0; by < h/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			// Extract and level-shift.
			for y := 0; y < 8; y++ {
				row := data[(by*8+y)*w+bx*8:]
				for x := 0; x < 8; x++ {
					block[y*8+x] = int32(row[x]) - 128
				}
			}
			FDCT8x8(&freq, &block)
			// Quantise into zigzag order.
			var zz [64]int32
			for i := 0; i < 64; i++ {
				zz[i] = quantize(freq[zigzag[i]], q[zigzag[i]])
			}
			// DC: differential category coding.
			diff := zz[0] - pred
			pred = zz[0]
			cat := bitCategory(diff)
			dcEnc.encode(bw, byte(cat))
			if cat > 0 {
				bw.WriteBits(magnitudeBits(diff, cat), cat)
			}
			// AC: run/size coding with ZRL and EOB.
			run := 0
			for i := 1; i < 64; i++ {
				if zz[i] == 0 {
					run++
					continue
				}
				for run >= 16 {
					acEnc.encode(bw, 0xf0) // ZRL
					run -= 16
				}
				c := bitCategory(zz[i])
				acEnc.encode(bw, byte(run<<4)|byte(c))
				bw.WriteBits(magnitudeBits(zz[i], c), c)
				run = 0
			}
			if run > 0 {
				acEnc.encode(bw, 0x00) // EOB
			}
		}
	}
}

// ParseHeader reads the header of an encoded frame without decoding it.
func ParseHeader(data []byte) (Header, error) {
	if len(data) < 9 || [4]byte(data[:4]) != frameMagic {
		return Header{}, fmt.Errorf("mjpeg: bad frame header")
	}
	h := Header{
		W:       int(binary.BigEndian.Uint16(data[4:6])),
		H:       int(binary.BigEndian.Uint16(data[6:8])),
		Quality: int(data[8]),
	}
	if h.W <= 0 || h.H <= 0 || h.W%16 != 0 || h.H%16 != 0 || h.Quality < 1 || h.Quality > 100 {
		return Header{}, fmt.Errorf("mjpeg: invalid header %dx%d q%d", h.W, h.H, h.Quality)
	}
	return h, nil
}

// DecodeEntropy runs the entropy-decoding stage: Huffman decoding,
// run-length expansion and dequantisation. It returns the dequantised
// coefficient planes, which the IDCT stage (IDCTPlaneRows) turns into
// pixels. This split mirrors the JPiP graph of the paper's Figure 7.
func DecodeEntropy(data []byte) (*CoeffFrame, error) {
	return DecodeEntropyInto(nil, data)
}

// DecodeEntropyInto is DecodeEntropy into a recycled frame: when cf is
// non-nil and has the packet's geometry its planes are overwritten and
// cf is returned, so a caller that owns its previous result allocates
// nothing; otherwise a new frame is allocated. After an error cf's
// contents are unspecified, but its offsets stay in bounds (see
// CoeffPlane), so cf can be inverse-transformed and decoded into again.
func DecodeEntropyInto(cf *CoeffFrame, data []byte) (*CoeffFrame, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	if cf == nil || cf.W != h.W || cf.H != h.H {
		cf = NewCoeffFrame(h.W, h.H)
	}
	cf.Stats = DecodeStats{}
	pos := 9
	for i, pl := range media.Planes {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("mjpeg: truncated frame (plane %s length)", pl)
		}
		n := int(binary.BigEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return nil, fmt.Errorf("mjpeg: truncated frame (plane %s data)", pl)
		}
		if err := decodePlaneEntropy(cf.Planes[i], &cf.Stats, data[pos:pos+n], pl == media.PlaneY, h.Quality); err != nil {
			return nil, fmt.Errorf("mjpeg: plane %s: %w", pl, err)
		}
		pos += n
	}
	return cf, nil
}

var errRunOverflow = errors.New("run overflows block")

// zigzagCoef[i] is the natural index of the i-th coefficient in zigzag
// order in its low 16 bits and the coeffMask of that index in its high
// 16 bits: the decoder's one table read for where a coefficient goes.
var zigzagCoef = func() (z [64]uint32) {
	for i, nat := range zigzag {
		z[i] = uint32(nat) | uint32(coeffMask(nat))<<16
	}
	return z
}()

// decodePlaneEntropy decodes one plane's bitstream into cp, which may
// hold a previous frame, and adds the work done to stats. Each block is
// decoded into a scratch block on the stack, which is cleared through
// the previous block's extent (so the clear stays in L1), and then the
// coefficients its extent covers are appended to cp.Coef as its record.
// A code and the magnitude bits after it are one lookahead read
// (huffDecoder.look), one word with the bits to consume, the symbol and
// the extended value, whenever both fit in lookBits bits; resolve gives
// the same word for the rest.
//
// The bit window (acc, n) and the byte position pos are locals, so they
// stay in registers across a symbol's index, table load and shift. The
// window is filled whenever it holds fewer than 32 bits, which covers
// any code and magnitude (at most 27 bits); a fill that leaves fewer
// than 32 has reached the end of data, so a symbol longer than n
// overruns the stream. An AC symbol is consumed right after its load,
// before the run is looked at, so the old window dies early; the rare
// symbol that overruns takes its error from codeError. The AC loop keeps
// few values live: one counter (coefs) and one table read (zigzagCoef)
// per coefficient, and data with its capacity cut to its length, so
// Fill's slicing needs no capacity word.
func decodePlaneEntropy(cp *CoeffPlane, stats *DecodeStats, data []byte, luma bool, quality int) error {
	q := quantTable(luma, quality)
	dcDec, acDec := dcChromaDec, acChromaDec
	if luma {
		dcDec, acDec = dcLumaDec, acLumaDec
	}
	data = data[:len(data):len(data)]
	pos, acc, n := 0, uint64(0), uint(0)
	// An AC coefficient symbol always gives a non-zero coefficient, so
	// coefs counts both; symbols and nonZero count the rest.
	symbols, nonZero, coefs := 0, 0, 0
	pred := int32(0)
	var err error
	var blk [64]int32
	bw := cp.W / 8
	off, rows, cols := 0, 0, 0 // next record's offset; last block's extent
	for by := 0; by < cp.H/8; by++ {
		cp.Row[by] = int32(off)
		for b := by * bw; b < (by+1)*bw; b++ {
			if rows <= 2 && cols <= 2 {
				blk[1], blk[8], blk[9] = 0, 0, 0 // blk[0] is always written
			} else {
				clear(blk[:8*rows])
			}
			// DC.
			if n < 32 {
				pos, acc, n = bitio.Fill(data, pos, acc, n)
			}
			w := dcDec.look[acc>>(64-lookBits)]
			if w.n() == 0 {
				if w, err = dcDec.resolve(acc, n); err != nil {
					return err
				}
			}
			if w.n() > n {
				return bitio.ErrOverrun
			}
			acc <<= w.n()
			n -= w.n()
			symbols++
			pred += w.value()
			blk[0] = pred * q[0]
			if blk[0] != 0 {
				nonZero++
			}
			mask := zigzagCoef[0] // its high half marks DC; the low half is unused
			// AC.
			for i := 1; i < 64; i++ {
				if n < 32 {
					pos, acc, n = bitio.Fill(data, pos, acc, n)
				}
				w := acDec.look[acc>>(64-lookBits)]
				if w.n() == 0 {
					if w, err = acDec.resolve(acc, n); err != nil {
						return err
					}
				}
				if w.n() > n {
					return codeError(w, i, n)
				}
				acc <<= w.n()
				n -= w.n()
				if sym := w.sym(); sym == 0x00 || sym == 0xf0 { // EOB, ZRL: no magnitude
					symbols++
					if sym == 0x00 {
						break
					}
					i += 15
					continue
				}
				if i += int(w.sym() >> 4); i >= 64 {
					return errRunOverflow
				}
				coefs++
				z := zigzagCoef[i]
				nat := z & 63
				blk[nat] = w.value() * q[nat]
				mask |= z
			}
			ext := maskExtent(uint16(mask >> 16))
			cp.Ext[b] = ext
			rows, cols = int(ext&15), int(ext>>4)
			// The record is copied a coefficient at a time: a wide load
			// of blk just after its scalar stores would stall. Four
			// stores cover every record of at most 2×2 (94 % of the
			// blocks), row-major; what lands past the record's end stays
			// inside the block's 64 slots, and is overwritten by the next
			// record or lies past Row[H/8].
			rec := (*[64]int32)(cp.Coef[off:])
			if rows <= 2 && cols <= 2 {
				rec[0], rec[1], rec[2], rec[3] = blk[0], blk[15-7*cols], blk[8], blk[9]
			} else {
				for r, i := 0, 0; r < rows; r++ {
					for c := r * 8; c < r*8+cols; c, i = c+1, i+1 {
						rec[i] = blk[c]
					}
				}
			}
			off += rows * cols
		}
	}
	cp.Row[cp.H/8] = int32(off)
	stats.Symbols += symbols + coefs
	stats.Bits += pos*8 - int(n)
	stats.NonZero += nonZero + coefs
	return nil
}

// codeError is the error of an AC code w at zigzag index i whose code
// and magnitude are longer than the n bits left. It is the one a
// bit-serial decoder meets first: an overrun inside the code, then the
// run overflow of a coefficient whose run lands past the block, then an
// overrun inside the magnitude. An EOB or a ZRL (no magnitude, so w.n()
// is its code length) always overruns here.
func codeError(w huffWord, i int, n uint) error {
	if w.codeLen() <= n && i+int(w.sym()>>4) >= 64 {
		return errRunOverflow
	}
	return bitio.ErrOverrun
}

// IDCTPlaneRows inverse-transforms pixel rows [r0, r1) of a coefficient
// plane into dst (a cp.W-wide byte plane). r0 and r1 must be multiples
// of 8 (or r1 == cp.H) so slices cover whole block rows: the JPiP
// application's 45 slices of a 720-row plane are 16 rows each.
//
// A 2×2 block, most of a luma plane, has pixel (x, y) at
// a[y] + basis[1][x]·b[y] before the shift, with a and b its two idct2
// columns (bias and basis[0] folded into a). Both columns are linear in
// basis[1][y], so the sum is bilinear in (basis[1][x], basis[1][y]) and
// takes its extremes at the corners (0,0), (7,0), (0,7) and (7,7):
// with the four corner sums in [0, 2^32), every pixel is in range. Its
// rows then run two pixels per product: word k of row y holds pixel k
// in its low 32 bits and pixel k+4 in its high ones,
// a[y]·(1+2^32) + b[y]·lanes2[k] mod 2^64. The low lane's true value
// lies in [0, 2^32), so it carries nothing into the high lane, and a
// row packs with one shift and mask a word. A 2×2 block with a corner
// out of range takes the generic path, which clamps.
func IDCTPlaneRows(dst []uint8, cp *CoeffPlane, r0, r1 int) {
	if r0%8 != 0 || (r1%8 != 0 && r1 != cp.H) {
		panic(fmt.Sprintf("mjpeg: IDCT rows [%d,%d) not block aligned", r0, r1))
	}
	// Rounding and the +128 level shift ride through the row sums; the
	// int32 truncation after the shift is the one the two-step form had.
	const bias = dctRound + 128<<(2*dctBits)
	var col [64]int64
	w, coef := cp.W, cp.Coef
	for by := r0 / 8; by < (r1+7)/8; by++ {
		off := int(cp.Row[by])
		for bx, ext := range cp.Ext[by*(w/8) : (by+1)*(w/8)] {
			in, cols := (*[64]int32)(coef[off:]), int(ext>>4)
			off += int(ext&15) * cols
			// Each pixel row of the block is one 8-byte store.
			if ext == 0x22 {
				// Two rows by two columns (see above): column u is
				// idct2(c0u, c1u), with no col and no call. A 2×1 block
				// stays below, where its rows are flat and cheaper.
				var a, b [8]int64
				a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = idct2(k0*int64(in[0]), k0*int64(in[2]), bias)
				b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = idct2(int64(in[1]), int64(in[3]), 0)
				// The corner check: read unsigned, a negative corner is
				// larger than any in range.
				c0, c7 := ka*b[0], ka*b[7]
				if max(uint64(a[0]+c0), uint64(a[0]-c0), uint64(a[7]+c7), uint64(a[7]-c7)) < 1<<32 {
					// Bits 24-31 of each lane are the pixel.
					for y, at := 0, by*8*w+bx*8; y < 8; y, at = y+1, at+w {
						e, t := uint64(a[y]), uint64(b[y])
						e += e << 32
						w0, w1, w2, w3 := e+t*lanes2[0], e+t*lanes2[1], e+t*lanes2[2], e+t*lanes2[3]
						row := w0>>24&0x000000ff000000ff | w1>>16&0x0000ff000000ff00 |
							w2>>8&0x00ff000000ff0000 | w3&0xff000000ff000000
						binary.LittleEndian.PutUint64(dst[at:], row)
					}
					continue
				}
				// A corner out of range: the block clamps below.
			}
			// The other rows are idctRow's, its n = 1 case written out
			// here: a flat row is one clamped sample.
			n, equal := idctColumns(&col, in, cols, ext)
			var row uint64
			for y, at := 0, by*8*w+bx*8; y < 8; y, at = y+1, at+w {
				switch {
				case y > 0 && equal:
				case n == 1:
					row = 0x0101010101010101 * uint64(clampPixel(int32((bias+k0*col[y*8])>>(2*dctBits))))
				default:
					row = packPixels(idctRow(&col, y, n, bias))
				}
				binary.LittleEndian.PutUint64(dst[at:], row)
			}
		}
	}
}

// packPixels shifts, clamps and packs eight samples into the bytes of
// one little-endian word, sample i in byte i. A row with every sample
// in [0, 2^32), so every pixel in range, costs one test and needs no
// clamp: byte i is bits 24-31 of sample i, moved into place.
func packPixels(x0, x1, x2, x3, x4, x5, x6, x7 int64) uint64 {
	if uint64(x0|x1|x2|x3|x4|x5|x6|x7) < 1<<32 {
		return uint64(x0)>>24 | uint64(x1)>>16&0xff00 | uint64(x2)>>8&0xff0000 | uint64(x3)&0xff000000 |
			uint64(x4)<<8&0xff00000000 | uint64(x5)<<16&0xff0000000000 |
			uint64(x6)<<24&0xff000000000000 | uint64(x7)<<32&0xff00000000000000
	}
	return clampPixels(x0, x1, x2, x3, x4, x5, x6, x7)
}

// clampPixels is packPixels for a row with a sample out of range.
func clampPixels(x0, x1, x2, x3, x4, x5, x6, x7 int64) uint64 {
	return uint64(clampPixel(int32(x0>>(2*dctBits)))) |
		uint64(clampPixel(int32(x1>>(2*dctBits))))<<8 |
		uint64(clampPixel(int32(x2>>(2*dctBits))))<<16 |
		uint64(clampPixel(int32(x3>>(2*dctBits))))<<24 |
		uint64(clampPixel(int32(x4>>(2*dctBits))))<<32 |
		uint64(clampPixel(int32(x5>>(2*dctBits))))<<40 |
		uint64(clampPixel(int32(x6>>(2*dctBits))))<<48 |
		uint64(clampPixel(int32(x7>>(2*dctBits))))<<56
}

// clampPixel saturates v to a byte; in range is the one-test common case.
func clampPixel(v int32) uint8 {
	if uint32(v) > 255 {
		if v < 0 {
			return 0
		}
		return 255
	}
	return uint8(v)
}

// Decode decodes a frame whole, the decoder of the hand-written
// sequential baselines: it entropy-decodes into a coefficient frame
// borrowed from the free-list (GetCoeffFrame), inverse-transforms every
// plane, and hands the coefficient frame back, so a call allocates only
// the frame it returns.
func Decode(data []byte) (*media.Frame, error) {
	f, _, err := DecodeWithStats(data)
	return f, err
}

// DecodeWithStats is Decode but also returns the entropy statistics.
func DecodeWithStats(data []byte) (*media.Frame, DecodeStats, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, DecodeStats{}, err
	}
	cf := GetCoeffFrame(h.W, h.H)
	defer PutCoeffFrame(cf)
	if _, err := DecodeEntropyInto(cf, data); err != nil {
		return nil, DecodeStats{}, err
	}
	return ReconstructFrame(cf), cf.Stats, nil
}

// ReconstructFrame applies the IDCT stage to all planes of a
// coefficient frame.
func ReconstructFrame(cf *CoeffFrame) *media.Frame {
	f := media.NewFrame(cf.W, cf.H)
	for i, pl := range media.Planes {
		data, _, ph := f.Plane(pl)
		IDCTPlaneRows(data, cf.Planes[i], 0, ph)
	}
	return f
}
