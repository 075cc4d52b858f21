package bitio

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestWriteReadBasic(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0b11110000, 8)
	w.WriteBit(1)
	if w.Len() != 12 {
		t.Fatalf("Len = %d", w.Len())
	}
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("first read %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0b11110000 {
		t.Fatalf("second read %b", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatal("third read")
	}
	if r.BitsRead() != 12 && r.BitsRead() != 16 {
		t.Fatalf("BitsRead = %d", r.BitsRead())
	}
}

func TestPaddingIsOnes(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b00011111 {
		t.Fatalf("padded byte = %08b", b[0])
	}
}

func TestOverrun(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOverrun {
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
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(0); v != 0 {
		t.Fatal("zero-bit read should be 0")
	}
	if v, _ := r.ReadBit(); v != 1 {
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
		r := NewReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.n)
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
	r := NewReader(w.Bytes())
	for i := 0; i < 10000; i++ {
		v, err := r.ReadBits(7)
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
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(32); v != 0xffffffff {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadBits(32); v != 0 {
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

// TestPeekSkipExact holds Peek, Skip and ReadBits to a bit-at-a-time
// reading of the buffer at every offset and width: through the wide
// refill, the byte-wise tail, the last partial byte and past the end.
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
			r := NewReader(buf)
			for at := 0; at < off; {
				n := next(33)
				if n > off-at {
					n = off - at
				}
				want := naiveBits(buf, at, n)
				switch next(3) {
				case 0:
					if got, err := r.ReadBits(uint(n)); err != nil || got != want {
						t.Fatalf("size %d: ReadBits(%d) at %d = %#x, %v; want %#x", size, n, at, got, err, want)
					}
				case 1:
					if got := r.Peek(uint(n)); got != want {
						t.Fatalf("size %d: Peek(%d) at %d = %#x, want %#x", size, n, at, got, want)
					}
					fallthrough
				case 2:
					if err := r.Skip(uint(n)); err != nil {
						t.Fatalf("size %d: Skip(%d) at %d: %v", size, n, at, err)
					}
				}
				at += n
				if r.BitsRead() != at {
					t.Fatalf("size %d: BitsRead = %d, want %d", size, r.BitsRead(), at)
				}
			}
			for n := 0; n <= 32; n++ {
				want := naiveBits(buf, off, n)
				peek := *r
				if got := peek.Peek(uint(n)); got != want {
					t.Fatalf("size %d: Peek(%d) at %d = %#x, want %#x", size, n, off, got, want)
				}
				if peek.BitsRead() != off {
					t.Fatalf("size %d: Peek(%d) at %d moved BitsRead to %d", size, n, off, peek.BitsRead())
				}
				read := *r
				got, err := read.ReadBits(uint(n))
				if off+n <= total {
					if err != nil || got != want || read.BitsRead() != off+n {
						t.Fatalf("size %d: ReadBits(%d) at %d = %#x, %v, BitsRead %d; want %#x", size, n, off, got, err, read.BitsRead(), want)
					}
					continue
				}
				if err != ErrOverrun || got != 0 || read.BitsRead() != off {
					t.Fatalf("size %d: ReadBits(%d) at %d of %d = %#x, %v, BitsRead %d; want ErrOverrun and no progress", size, n, off, total, got, err, read.BitsRead())
				}
				if err := read.Skip(uint(total - off)); err != nil {
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

// TestFillExact holds Fill, and a Reader at the window it returns, to
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
						r := Reader{buf: buf, pos: p, acc: a, nacc: m}
						if got, want := r.Peek(k), naiveBits(buf, off, int(k)); got != want {
							t.Fatalf("size %d pos %d n %d: Peek(%d) = %#x, want %#x", size, pos, n, k, got, want)
						}
						err := r.Skip(k)
						if fits := off+int(k) <= total; fits && (err != nil || r.BitsRead() != off+int(k)) ||
							!fits && (err != ErrOverrun || r.BitsRead() != off) {
							t.Fatalf("size %d pos %d n %d: Skip(%d) at %d of %d = %v, BitsRead %d", size, pos, n, k, off, total, err, r.BitsRead())
						}
					}
				}
			}
		}
	}
}
