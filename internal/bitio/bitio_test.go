package bitio

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// fillReader reads a buffer MSB-first through Fill's window, by the
// entropy decoder's rule: fill when fewer than 32 bits are counted,
// read a symbol's k ≤ 32 bits from the top of the window, and fail with
// ErrOverrun, consuming nothing, when fewer than k are left after the
// fill. Bits past the end of the buffer peek as zero.
type fillReader struct {
	buf []byte
	pos int    // bytes loaded into acc
	acc uint64 // unread bits, most significant first
	n   uint   // unread bits counted in acc
}

func newFillReader(buf []byte) *fillReader { return &fillReader{buf: buf} }

// peek returns the next k bits without consuming them.
func (r *fillReader) peek(k uint) uint32 {
	if r.n < 32 {
		r.pos, r.acc, r.n = Fill(r.buf, r.pos, r.acc, r.n)
	}
	return uint32(r.acc >> (64 - k))
}

// skip consumes k bits, or none and ErrOverrun when fewer are left.
func (r *fillReader) skip(k uint) error {
	if r.n < 32 {
		r.pos, r.acc, r.n = Fill(r.buf, r.pos, r.acc, r.n)
	}
	if k > r.n {
		return ErrOverrun
	}
	r.acc <<= k
	r.n -= k
	return nil
}

// read is peek and skip: the next k bits, consumed.
func (r *fillReader) read(k uint) (uint32, error) {
	v := r.peek(k)
	if err := r.skip(k); err != nil {
		return 0, err
	}
	return v, nil
}

// bitsRead is the number of bits consumed so far.
func (r *fillReader) bitsRead() int { return r.pos*8 - int(r.n) }

func TestWriteReadBasic(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0b11110000, 8)
	w.WriteBit(1)
	if w.Len() != 12 {
		t.Fatalf("Len = %d", w.Len())
	}
	r := newFillReader(w.Bytes())
	if v, _ := r.read(3); v != 0b101 {
		t.Fatalf("first read %b", v)
	}
	if v, _ := r.read(8); v != 0b11110000 {
		t.Fatalf("second read %b", v)
	}
	if v, _ := r.read(1); v != 1 {
		t.Fatal("third read")
	}
	if r.bitsRead() != 12 && r.bitsRead() != 16 {
		t.Fatalf("bitsRead = %d", r.bitsRead())
	}
}

func TestPaddingIsOnes(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b00011111 {
		t.Fatalf("padded byte = %08b", b[0])
	}
	// Read back, the padding is five one-bits and then the stream ends.
	r := newFillReader(b)
	if v, err := r.read(3); err != nil || v != 0 {
		t.Fatalf("data bits %03b, %v", v, err)
	}
	if v, err := r.read(5); err != nil || v != 0b11111 {
		t.Fatalf("padding bits %05b, %v", v, err)
	}
	if _, err := r.read(1); err != ErrOverrun {
		t.Fatalf("read past the padding: %v, want ErrOverrun", err)
	}
}

func TestOverrun(t *testing.T) {
	r := newFillReader([]byte{0xff})
	if _, err := r.read(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.read(1); err != ErrOverrun {
		t.Fatalf("want ErrOverrun, got %v", err)
	}
}

func TestWriteBitsPanics(t *testing.T) {
	w := NewWriter()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("n=33 did not panic")
			}
		}()
		w.WriteBits(0, 33)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized value did not panic")
			}
		}()
		w.WriteBits(4, 2)
	}()
}

func TestZeroBitWrites(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 0)
	w.WriteBits(1, 1)
	r := newFillReader(w.Bytes())
	if v, _ := r.read(0); v != 0 {
		t.Fatal("zero-bit read should be 0")
	}
	if v, _ := r.read(1); v != 1 {
		t.Fatal("bit lost after zero-bit write")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any sequence of (value, width) pairs must round-trip exactly.
	f := func(vals []uint32, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewWriter()
		type item struct {
			v uint32
			n uint
		}
		var items []item
		for i := 0; i < n; i++ {
			width := uint(widths[i]%32) + 1
			v := vals[i] & ((1 << width) - 1)
			w.WriteBits(v, width)
			items = append(items, item{v, width})
		}
		r := newFillReader(w.Bytes())
		for _, it := range items {
			got, err := r.read(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLongStream(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 10000; i++ {
		w.WriteBits(uint32(i)&0x7f, 7)
	}
	r := newFillReader(w.Bytes())
	for i := 0; i < 10000; i++ {
		v, err := r.read(7)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(i)&0x7f {
			t.Fatalf("item %d: got %d", i, v)
		}
	}
}

func TestFullWidthValues(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xffffffff, 32)
	w.WriteBits(0, 32)
	r := newFillReader(w.Bytes())
	if v, _ := r.read(32); v != 0xffffffff {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.read(32); v != 0 {
		t.Fatalf("got %x", v)
	}
}

// naiveBits reads n bits at bit offset off of buf one at a time, bits
// past the end as zero.
func naiveBits(buf []byte, off, n int) uint32 {
	var v uint32
	for i := off; i < off+n; i++ {
		v <<= 1
		if i/8 < len(buf) {
			v |= uint32(buf[i/8]>>(7-i%8)) & 1
		}
	}
	return v
}

// TestPeekSkipExact holds a Fill-fed window's peek, skip and read to a
// bit-at-a-time reading of the buffer at every offset and width: through
// Fill's wide load, its byte-wise tail, the last partial byte and past
// the end.
func TestPeekSkipExact(t *testing.T) {
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for size := 0; size <= 21; size++ {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(next(256))
		}
		total := size * 8
		for off := 0; off <= total; off++ {
			// Reach off in random steps, mixing the three calls.
			r := newFillReader(buf)
			for at := 0; at < off; {
				n := next(33)
				if n > off-at {
					n = off - at
				}
				want := naiveBits(buf, at, n)
				switch next(3) {
				case 0:
					if got, err := r.read(uint(n)); err != nil || got != want {
						t.Fatalf("size %d: read(%d) at %d = %#x, %v; want %#x", size, n, at, got, err, want)
					}
				case 1:
					if got := r.peek(uint(n)); got != want {
						t.Fatalf("size %d: peek(%d) at %d = %#x, want %#x", size, n, at, got, want)
					}
					fallthrough
				case 2:
					if err := r.skip(uint(n)); err != nil {
						t.Fatalf("size %d: skip(%d) at %d: %v", size, n, at, err)
					}
				}
				at += n
				if r.bitsRead() != at {
					t.Fatalf("size %d: bitsRead = %d, want %d", size, r.bitsRead(), at)
				}
			}
			for n := 0; n <= 32; n++ {
				want := naiveBits(buf, off, n)
				peek := *r
				if got := peek.peek(uint(n)); got != want {
					t.Fatalf("size %d: peek(%d) at %d = %#x, want %#x", size, n, off, got, want)
				}
				if peek.bitsRead() != off {
					t.Fatalf("size %d: peek(%d) at %d moved bitsRead to %d", size, n, off, peek.bitsRead())
				}
				read := *r
				got, err := read.read(uint(n))
				if off+n <= total {
					if err != nil || got != want || read.bitsRead() != off+n {
						t.Fatalf("size %d: read(%d) at %d = %#x, %v, bitsRead %d; want %#x", size, n, off, got, err, read.bitsRead(), want)
					}
					continue
				}
				if err != ErrOverrun || got != 0 || read.bitsRead() != off {
					t.Fatalf("size %d: read(%d) at %d of %d = %#x, %v, bitsRead %d; want ErrOverrun and no progress", size, n, off, total, got, err, read.bitsRead())
				}
				if err := read.skip(uint(total - off)); err != nil {
					t.Fatalf("size %d: the %d bits left at %d could not be skipped after an overrun: %v", size, total-off, off, err)
				}
			}
		}
	}
}

// streamWord is the 64 bits of buf from bit offset off, bits past the
// end as zero.
func streamWord(buf []byte, off int) uint64 {
	return uint64(naiveBits(buf, off, 32))<<32 | uint64(naiveBits(buf, off+32, 32))
}

// TestFillExact holds Fill, and a fillReader at the window it returns, to
// byte-at-a-time loading: for every buffer length, start position and
// bit count in the window, with the bits below the count the stream's
// own or zero. The filled window must count the same bits read, hold at
// least 56 bits or the rest of the buffer, and read as the stream (bits
// past its end as zero); Skip past the end must still be ErrOverrun.
func TestFillExact(t *testing.T) {
	buf := make([]byte, 17)
	for i := range buf {
		buf[i] = byte(0x9b*i + 0x5e) // no zero byte, so a missing load shows
	}
	for size := 0; size <= len(buf); size++ {
		buf := buf[:size]
		total := size * 8
		for pos := 0; pos <= size; pos++ {
			for n := uint(0); n <= 63 && int(n) <= pos*8; n++ {
				off := pos*8 - int(n)
				s := streamWord(buf, off)
				// The bits below n: all the stream's own, or none.
				for _, acc := range []uint64{s, s &^ (^uint64(0) >> n)} {
					p, a, m := Fill(buf, pos, acc, n)
					if p*8-int(m) != off {
						t.Fatalf("size %d pos %d n %d: Fill moved the read position from %d to %d", size, pos, n, off, p*8-int(m))
					}
					if m > 63 || m < n || m < 56 && p != size {
						t.Fatalf("size %d pos %d n %d: Fill left %d bits at byte %d", size, pos, n, m, p)
					}
					// a agrees with the stream on its first k bits, at
					// least the m counted, and is zero after them.
					if k := bits.LeadingZeros64(a ^ s); k < int(m) || a<<k != 0 {
						t.Fatalf("size %d pos %d n %d: window %#016x of %d bits, stream %#016x", size, pos, n, a, m, s)
					}
					if p == size && a != s {
						t.Fatalf("size %d pos %d n %d: window %#016x at the end, want %#016x (zeros past it)", size, pos, n, a, s)
					}
					for k := uint(0); k <= 32; k++ {
						r := fillReader{buf: buf, pos: p, acc: a, n: m}
						if got, want := r.peek(k), naiveBits(buf, off, int(k)); got != want {
							t.Fatalf("size %d pos %d n %d: peek(%d) = %#x, want %#x", size, pos, n, k, got, want)
						}
						err := r.skip(k)
						if fits := off+int(k) <= total; fits && (err != nil || r.bitsRead() != off+int(k)) ||
							!fits && (err != ErrOverrun || r.bitsRead() != off) {
							t.Fatalf("size %d pos %d n %d: skip(%d) at %d of %d = %v, bitsRead %d", size, pos, n, k, off, total, err, r.bitsRead())
						}
					}
				}
			}
		}
	}
}
