package mjpeg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"xspcl/internal/bitio"
	"xspcl/internal/media"
)

// TestBasisSymmetry pins the table identities the even/odd transforms,
// idct8's three-product pairs and the DC-only shortcut rest on, and the
// constants idct8 and idct2 multiply by. The identities hold for the
// exact cosines; this checks they survived rounding to dctBits.
func TestBasisSymmetry(t *testing.T) {
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			want := cosBasis[u][x]
			if u&1 != 0 {
				want = -want
			}
			if cosBasis[u][7-x] != want {
				t.Errorf("cosBasis[%d][%d] = %d, want %d", u, 7-x, cosBasis[u][7-x], want)
			}
		}
	}
	for x := 1; x < 8; x++ {
		if cosBasis[0][x] != cosBasis[0][0] {
			t.Errorf("cosBasis[0][%d] = %d, want flat %d", x, cosBasis[0][x], cosBasis[0][0])
		}
	}
	// The even half of idct8 is a 4-point transform: basis[4] is
	// [c,-c,-c,c] on x = 0..3, and basis[2] and basis[6] are
	// antisymmetric about x ↔ 3-x.
	if c, b4 := cosBasis[4][0], cosBasis[4][:4]; b4[1] != -c || b4[2] != -c || b4[3] != c {
		t.Errorf("cosBasis[4][:4] = %v, want [c,-c,-c,c]", b4)
	}
	for _, u := range []int{2, 6} {
		for x := 0; x < 4; x++ {
			if cosBasis[u][3-x] != -cosBasis[u][x] {
				t.Errorf("cosBasis[%d][%d] = %d, want -cosBasis[%d][%d] = %d", u, 3-x, cosBasis[u][3-x], u, x, -cosBasis[u][x])
			}
		}
	}
	// idct8's three-product pairs: basis[6][0..1] is basis[2][0..1]
	// reversed with the second sign flipped, and basis[3], basis[5] and
	// basis[7] on x = 0..3 are signed permutations of basis[1].
	b1, b2 := cosBasis[1], cosBasis[2]
	if got, want := [2]int32(cosBasis[6][:2]), [2]int32{b2[1], -b2[0]}; got != want {
		t.Errorf("cosBasis[6][:2] = %v, want %v", got, want)
	}
	for u, want := range map[int][4]int32{
		3: {b1[1], -b1[3], -b1[0], -b1[2]},
		5: {b1[2], -b1[0], b1[3], b1[1]},
		7: {b1[3], -b1[2], b1[1], -b1[0]},
	} {
		if got := [4]int32(cosBasis[u][:4]); got != want {
			t.Errorf("cosBasis[%d][:4] = %v, want %v", u, got, want)
		}
	}
	// The constants idct8 and idct2 multiply by.
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"k0", k0, int64(cosBasis[0][0])}, {"k0", k0, int64(cosBasis[4][0])},
		{"ka", ka, int64(b1[0])}, {"kb", kb, int64(b1[1])}, {"kc", kc, int64(b1[2])}, {"kd", kd, int64(b1[3])},
		{"kp", kp, int64(b2[0])}, {"kq", kq, int64(b2[1])},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestIDCT8Definition holds idct8, and idct2 on vectors whose inputs
// past the second are zero, to the plain sum x_i = bias + Σk
// basis[k][i]·t_k on random int64 vectors. The row pass sees column
// sums far past the int32 coefficients TestIDCTExact feeds, so the
// inputs run up to 2^62 in magnitude and over all of int64, where the
// sums wrap: the three-product pairs must be exact in the int64 ring.
func TestIDCT8Definition(t *testing.T) {
	r := media.NewRNG(23)
	value := func() int64 {
		switch r.Intn(4) {
		case 0:
			return int64(r.Intn(1<<13)) - 1<<12
		case 1:
			return int64(int32(r.Uint64()))
		case 2:
			return int64(r.Uint64()>>1) - 1<<62 // |v| ≤ 2^62
		}
		return int64(r.Uint64())
	}
	for i := 0; i < 100000; i++ {
		var tk [8]int64
		for k := range tk {
			tk[k] = value()
		}
		if i%4 == 0 {
			clear(tk[2:])
		}
		bias := []int64{0, dctRound, dctRound + 128<<(2*dctBits), value()}[i%4]
		var want [8]int64
		for x := range want {
			want[x] = bias
			for k, v := range tk {
				want[x] += int64(cosBasis[k][x]) * v
			}
		}
		var got [8]int64
		got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = idct8(tk[0], tk[1], tk[2], tk[3], tk[4], tk[5], tk[6], tk[7], bias)
		if got != want {
			t.Fatalf("idct8(%v, bias %d) = %v, want %v", tk, bias, got, want)
		}
		if i%4 == 0 {
			got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = idct2(tk[0], tk[1], bias)
			if got != want {
				t.Fatalf("idct2(%d, %d, bias %d) = %v, want %v", tk[0], tk[1], bias, got, want)
			}
		}
	}
}

// randomCoeffBlock fills blk with the i-th block of a fixed mix: DC
// only, 1-12 coefficients scattered or packed at low frequencies, and
// dense, with magnitudes from a few quantisation steps through the
// ±4096·255 a coefficient can dequantise to, up to all of int32 (a
// corrupt packet's DC prediction can wrap).
func randomCoeffBlock(r *media.RNG, i int, blk *[64]int32) {
	*blk = [64]int32{}
	mag := []int{8, 300, 4096, 4096 * 255, 1<<31 - 1}[r.Intn(5)]
	coeff := func() int32 { return int32(r.Intn(2*mag+1) - mag) }
	switch i % 4 {
	case 0:
		blk[0] = coeff()
	case 1:
		for k := 1 + r.Intn(12); k > 0; k-- {
			blk[r.Intn(64)] = coeff()
		}
	case 2:
		for k := 1 + r.Intn(12); k > 0; k-- {
			blk[zigzag[r.Intn(16)]] = coeff()
		}
	case 3:
		for j := range blk {
			blk[j] = coeff()
		}
	}
}

func TestIDCTExact(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	r := media.NewRNG(16)
	var in, want, got [64]int32
	for i := 0; i < n; i++ {
		randomCoeffBlock(r, i, &in)
		refIDCT8x8(&want, &in)
		IDCT8x8(&got, &in)
		if got != want {
			t.Fatalf("block %d: IDCT8x8(%v) = %v, want %v", i, in, got, want)
		}
		got = in
		IDCT8x8(&got, &got)
		if got != want {
			t.Fatalf("block %d: aliased IDCT8x8 differs", i)
		}
	}
}

// FuzzIDCT runs a fuzzed block through IDCT8x8, aliased and not, and
// through IDCTPlaneRows as the first block of a two-block plane,
// against the dense references. The packed block has its tightest
// extent, widened by the rows and columns a 257th byte asks for.
func FuzzIDCT(f *testing.F) {
	r := media.NewRNG(19)
	var blk [64]int32
	for i := 0; i < 8; i++ {
		randomCoeffBlock(r, i, &blk)
		f.Add(blockBytes(&blk))
	}
	// add seeds a block of the given natural index, value pairs whose
	// 257th byte is widen: the 2×2 path of IDCTPlaneRows and its borders.
	add := func(widen byte, iv ...int32) {
		blk = [64]int32{}
		for k := 0; k < len(iv); k += 2 {
			blk[iv[k]] = iv[k+1]
		}
		f.Add(append(blockBytes(&blk), widen))
	}
	add(0, 0, 37, 8, -52)                                 // tight 2×1: off the path
	add(0, 0, 4096*255, 8, -4096*200)                     // tight 2×1, clamping
	add(0, 0, -41, 1, 23, 8, 60, 9, -17)                  // tight 2×2
	add(0, 0, 1<<31-1, 1, -300000, 8, 4096*255, 9, 77777) // tight 2×2, clamping
	add(0x22, 0, 90, 8, -33)                              // 2×1 widened to 2×2
	add(0, 0, 12, 1, -7, 8, 25, 9, 40, 16, 31)            // 3×2: off the path
	add(0, 0, 12, 2, -7, 8, 25, 9, 40, 10, -19)           // 2×3: off the path
	add(0x20)                                             // no rows, two columns
	add(0x02)                                             // two rows, no columns
	// The corner check of the 2×2 path at its borders: each corner in
	// turn as close as a 2×2 block reaches to either edge of [0, 2^32),
	// from inside and from outside, the other three corners in range.
	// The comment gives the corner and its sum before the shift.
	add(0, 0, 73, 1, -463, 8, -56, 9, -198)  // (0,0): 2
	add(0, 0, 110, 1, -82, 8, 147, 9, 426)   // (0,0): 2^32-14
	add(0, 0, -586, 1, -318, 8, 95, 9, -69)  // (0,0): -13
	add(0, 0, 859, 1, -22, 8, 116, 9, 16)    // (0,0): 2^32
	add(0, 0, 73, 1, -463, 8, 56, 9, 198)    // (0,7): 2
	add(0, 0, 110, 1, -82, 8, -147, 9, -426) // (0,7): 2^32-14
	add(0, 0, -586, 1, -318, 8, -95, 9, 69)  // (0,7): -13
	add(0, 0, 859, 1, -22, 8, -116, 9, -16)  // (0,7): 2^32
	add(0, 0, 73, 1, 463, 8, -56, 9, 198)    // (7,0): 2
	add(0, 0, 110, 1, 82, 8, 147, 9, -426)   // (7,0): 2^32-14
	add(0, 0, -586, 1, 318, 8, 95, 9, 69)    // (7,0): -13
	add(0, 0, 859, 1, 22, 8, 116, 9, -16)    // (7,0): 2^32
	add(0, 0, 73, 1, 463, 8, 56, 9, -198)    // (7,7): 2
	add(0, 0, 110, 1, 82, 8, -147, 9, 426)   // (7,7): 2^32-14
	add(0, 0, -586, 1, 318, 8, -95, 9, -69)  // (7,7): -13
	add(0, 0, 859, 1, 22, 8, -116, 9, 16)    // (7,7): 2^32
	f.Fuzz(func(t *testing.T, data []byte) {
		var in, want, got [64]int32
		for i := range in {
			if len(data) >= 4*(i+1) {
				in[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		refIDCT8x8(&want, &in)
		IDCT8x8(&got, &in)
		if got != want {
			t.Fatalf("IDCT8x8(%v) = %v, want %v", in, got, want)
		}
		got = in
		IDCT8x8(&got, &got)
		if got != want {
			t.Fatalf("aliased IDCT8x8(%v) = %v, want %v", in, got, want)
		}
		ext := blockExtent(&in)
		if len(data) > 4*len(in) {
			ext = widenExtent(ext, data[4*len(in)]&15%9, data[4*len(in)]>>4%9)
		}
		// A guard block's record follows the fuzzed block's, so a read
		// past the record sees non-zero coefficients.
		dense := append(in[:], make([]int32, 64)...)
		dense[64], dense[65], dense[72], dense[73] = -517, 230, 99, 1
		cp := packPlane(16, 8, dense, []uint8{ext, blockExtent((*[64]int32)(dense[64:]))})
		var wantPx, gotPx [128]uint8
		refIDCTPlaneRows(wantPx[:], dense, 16, 0, 8)
		IDCTPlaneRows(gotPx[:], cp, 0, 8)
		if gotPx != wantPx {
			t.Fatalf("IDCTPlaneRows(%v) at extent %#x = %v, want %v", in, ext, gotPx, wantPx)
		}
	})
}

// packPlane is the test packer: it builds a w×h plane from dense blocks
// (block b is the 64 coefficients at dense[b*64:], natural order),
// giving block b the extent ext[b], or its tightest extent when ext is
// nil. An extent must cover every non-zero coefficient of its block.
func packPlane(w, h int, dense []int32, ext []uint8) *CoeffPlane {
	cp := NewCoeffPlane(w, h)
	off := 0
	for b := range cp.Ext {
		blk := (*[64]int32)(dense[b*64:])
		e := blockExtent(blk)
		if ext != nil {
			if widenExtent(e, ext[b]&15, ext[b]>>4) != ext[b] {
				panic(fmt.Sprintf("packPlane: extent %#x of block %d leaves out a coefficient", ext[b], b))
			}
			e = ext[b]
		}
		if b%(w/8) == 0 {
			cp.Row[b/(w/8)] = int32(off)
		}
		cp.Ext[b] = e
		for r := 0; r < int(e&15); r++ {
			for c := 0; c < int(e>>4); c++ {
				cp.Coef[off] = blk[r*8+c]
				off++
			}
		}
	}
	cp.Row[h/8] = int32(off)
	return cp
}

// widenExtent widens extent e to at least rows × cols.
func widenExtent(e, rows, cols uint8) uint8 {
	return max(e&15, rows) | max(e>>4, cols)<<4
}

// denseView expands a packed plane into dense blocks, the layout
// packPlane takes and the reference decoder writes.
func denseView(cp *CoeffPlane) []int32 {
	dense := make([]int32, cp.W*cp.H)
	bw := cp.W / 8
	for by := 0; by < cp.H/8; by++ {
		off := int(cp.Row[by])
		for b := by * bw; b < (by+1)*bw; b++ {
			e := cp.Ext[b]
			for r := 0; r < int(e&15); r++ {
				for c := 0; c < int(e>>4); c++ {
					dense[b*64+r*8+c] = cp.Coef[off]
					off++
				}
			}
		}
	}
	return dense
}

// samePlane reports whether two planes hold the same packed
// coefficients: same geometry, extents, row offsets and records.
func samePlane(a, b *CoeffPlane) bool {
	n := a.Row[len(a.Row)-1]
	return a.W == b.W && a.H == b.H && slices.Equal(a.Ext, b.Ext) && slices.Equal(a.Row, b.Row) &&
		slices.Equal(a.Coef[:n], b.Coef[:n])
}

// idctEverySlice inverse-transforms every plane of cf in the 16-row
// slices the JPiP application runs; it must not panic, whatever a
// failed decode left in cf.
func idctEverySlice(cf *CoeffFrame) {
	for _, p := range cf.Planes {
		dst := make([]uint8, p.W*p.H)
		for r0 := 0; r0 < p.H; r0 += 16 {
			IDCTPlaneRows(dst, p, r0, min(r0+16, p.H))
		}
	}
}

// blockBytes is the fuzz encoding of a coefficient block: 64
// little-endian int32s.
func blockBytes(blk *[64]int32) []byte {
	b := make([]byte, 0, 4*len(blk))
	for _, c := range blk {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	return b
}

// idctClass names the path IDCTPlaneRows takes for block blk of extent
// e. A 2×2 block is "clamped" when the dense reference puts a pixel out
// of range.
func idctClass(e uint8, blk *[64]int32) string {
	rows, cols := e&15, e>>4
	switch {
	case e == 0x22:
		var pix [64]int32
		refIDCT8x8(&pix, blk)
		for _, v := range pix {
			if uint32(v+128) > 255 {
				return "2×2 clamped"
			}
		}
		return "2×2 in range"
	case rows <= 1:
		return "equal rows"
	case cols <= 1:
		return "flat rows"
	}
	return "generic"
}

// TestIDCTPlaneRowsExact covers the clamp-and-store path, in slices as
// the JPiP application runs it, on planes packed by the test packer.
// Every other round widens each block's extent by random rows and
// columns: an extent only bounds where the non-zero coefficients are,
// and a loose one must give the same pixels. It counts the blocks of
// each of IDCTPlaneRows' paths and fails if one falls below its floor.
func TestIDCTPlaneRowsExact(t *testing.T) {
	r := media.NewRNG(17)
	const w, h = 64, 48
	dense := make([]int32, w*h)
	ext := make([]uint8, w*h/64)
	seen := map[string]int{}
	for round := 0; round < 40; round++ {
		for i := range ext {
			blk := (*[64]int32)(dense[i*64:])
			randomCoeffBlock(r, r.Intn(4), blk)
			switch r.Intn(8) {
			case 0: // empty: a widened extent may have columns but no rows
				clear(blk[:])
			case 1, 2: // two rows by one or two columns, the commonest classes
				randomCoeffBlock(r, 3, blk)
				cols := 1 + r.Intn(2)
				for j := range blk {
					if j >= 16 || j%8 >= cols {
						blk[j] = 0
					}
				}
			}
			ext[i] = blockExtent(blk)
			if round%2 == 1 {
				ext[i] = widenExtent(ext[i], uint8(r.Intn(9)), uint8(r.Intn(9)))
			}
			seen[idctClass(ext[i], blk)]++
		}
		cp := packPlane(w, h, dense, ext)
		want := make([]uint8, cp.W*cp.H)
		got := make([]uint8, cp.W*cp.H)
		refIDCTPlaneRows(want, dense, w, 0, cp.H)
		for r0 := 0; r0 < cp.H; r0 += 16 {
			IDCTPlaneRows(got, cp, r0, r0+16)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: IDCTPlaneRows differs from the dense reference", round)
		}
	}
	for class, floor := range map[string]int{"2×2 in range": 40, "2×2 clamped": 60, "equal rows": 200, "flat rows": 100, "generic": 800} {
		if seen[class] < floor {
			t.Errorf("%d blocks take the %s path, want at least %d (all: %v)", seen[class], class, floor, seen)
		}
	}
}

func TestFDCTExact(t *testing.T) {
	r := media.NewRNG(18)
	var in, want, got [64]int32
	for i := 0; i < 50_000; i++ {
		for j := range in {
			switch i % 3 {
			case 0: // level-shifted pixels
				in[j] = int32(r.Intn(256)) - 128
			case 1: // extremes only
				in[j] = int32(r.Intn(2))*255 - 128
			case 2: // beyond the pixel range
				in[j] = int32(r.Intn(1<<20)) - 1<<19
			}
		}
		refFDCT8x8(&want, &in)
		FDCT8x8(&got, &in)
		if got != want {
			t.Fatalf("block %d: FDCT8x8(%v) = %v, want %v", i, in, got, want)
		}
		got = in
		FDCT8x8(&got, &got)
		if got != want {
			t.Fatalf("block %d: aliased FDCT8x8 differs", i)
		}
	}
}

// TestEncodeBytesExact compares encoded bytes with checksums frozen
// from the dense-FDCT encoder this package had before.
func TestEncodeBytesExact(t *testing.T) {
	for _, c := range []struct {
		name    string
		f       *media.Frame
		quality int
		want    uint32
	}{
		{"video 48x32", media.NewGenerator(48, 32, 17).Next(), 75, 0x6cf27525},
		{"video 64x48", media.NewGenerator(64, 48, 11).Next(), 30, 0x9dad57b0},
		{"video 64x48", media.NewGenerator(64, 48, 11).Next(), 95, 0x523014f9},
		{"video 320x240", media.NewGenerator(320, 240, 1).Next(), 75, 0xccd3357d},
		{"noise 64x32", noiseFrame(64, 32, 23), 50, 0xd7df935a},
		{"noise 64x32", noiseFrame(64, 32, 23), 100, 0x08b8e741},
	} {
		enc, err := Encode(c.f, c.quality)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(enc); got != c.want {
			t.Errorf("%s q%d: %d bytes, CRC %#08x, want %#08x", c.name, c.quality, len(enc), got, c.want)
		}
	}
}

// noiseFrame is a frame of uniform random samples: every coefficient of
// every block is busy.
func noiseFrame(w, h int, seed uint64) *media.Frame {
	f := media.NewFrame(w, h)
	r := media.NewRNG(seed)
	for _, pl := range media.Planes {
		data, _, _ := f.Plane(pl)
		for i := range data {
			data[i] = uint8(r.Intn(256))
		}
	}
	return f
}

// errClass names the kind of a decode failure.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, bitio.ErrOverrun):
		return "overrun"
	case errors.Is(err, errInvalidCode):
		return "invalid code"
	case errors.Is(err, errRunOverflow):
		return "run overflow"
	}
	return "container"
}

// checkDecodeEntropy asserts that the decoder and the bit-serial
// reference agree on data: same error class and text, or identical
// coefficients and statistics, packed as checkPacked says. It decodes
// twice, into a fresh frame and into one left dirty by another picture
// (dirtyCoeffFrame), which must inverse-transform without a panic
// whatever the decode left in it.
func checkDecodeEntropy(t *testing.T, data []byte) string {
	t.Helper()
	want, wantErr := refDecodeEntropy(data)
	h, _ := ParseHeader(data)
	dirty := dirtyCoeffFrame(h.W, h.H, uint64(len(data)))
	for _, into := range []*CoeffFrame{nil, dirty} {
		got, gotErr := DecodeEntropyInto(into, data)
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("error class %q (%v), reference %q (%v)", errClass(gotErr), gotErr, errClass(wantErr), wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference %q", gotErr, wantErr)
			}
			if got != nil {
				t.Fatal("frame returned alongside an error")
			}
			continue
		}
		if got.Stats != want.Stats {
			t.Fatalf("stats %+v, reference %+v", got.Stats, want.Stats)
		}
		if got.W != want.W || got.H != want.H {
			t.Fatalf("geometry %dx%d, reference %dx%d", got.W, got.H, want.W, want.H)
		}
		for i, pl := range media.Planes {
			g := got.Planes[i]
			if w, h := media.PlaneDims(pl, want.W, want.H); g.W != w || g.H != h {
				t.Fatalf("plane %d is %dx%d, reference %dx%d", i, g.W, g.H, w, h)
			}
			if !slices.Equal(denseView(g), want.Planes[i]) {
				t.Fatalf("plane %d coefficients differ from the reference (recycled frame: %v)", i, into != nil)
			}
			checkPacked(t, g, want.Planes[i])
		}
	}
	if dirty != nil {
		idctEverySlice(dirty)
	}
	return errClass(wantErr)
}

// checkPacked asserts that a decoded plane is packed as CoeffPlane
// says, given its dense reference coefficients: each block's extent is
// the tightest one, widened to its DC coefficient (which the bitstream
// always carries), and Row[by] is the number of coefficients the
// records before block row by hold.
func checkPacked(t *testing.T, cp *CoeffPlane, dense []int32) {
	t.Helper()
	bw := cp.W / 8
	off := int32(0)
	for b, e := range cp.Ext {
		if b%bw == 0 && cp.Row[b/bw] != off {
			t.Fatalf("Row[%d] = %d, the records before it hold %d", b/bw, cp.Row[b/bw], off)
		}
		if want := widenExtent(blockExtent((*[64]int32)(dense[b*64:])), 1, 1); e != want {
			t.Fatalf("block %d has extent %#x, want %#x", b, e, want)
		}
		off += int32(e&15) * int32(e>>4)
	}
	if last := cp.Row[cp.H/8]; last != off {
		t.Fatalf("Row[%d] = %d, the records hold %d", cp.H/8, last, off)
	}
}

// dirtyCoeffFrame is a w×h frame as another picture would leave it:
// each block holds non-zero coefficients at a random set of rows and
// columns, packed at exactly that extent, and the room past the last
// record holds non-zero junk. It is nil when w×h is not a frame
// geometry.
func dirtyCoeffFrame(w, h int, seed uint64) *CoeffFrame {
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		return nil
	}
	r := media.NewRNG(seed)
	cf := NewCoeffFrame(w, h)
	for pi, p := range cf.Planes {
		dense := make([]int32, p.W*p.H)
		for b := range p.Ext {
			rows, cols := r.Intn(256), r.Intn(256)
			for i := 0; i < 64; i++ {
				if (rows>>(i/8))&(cols>>(i%8))&1 != 0 {
					dense[b*64+i] = int32(r.Intn(2000)) + 1
				}
			}
		}
		q := packPlane(p.W, p.H, dense, nil)
		for j := q.Row[q.H/8]; int(j) < len(q.Coef); j++ {
			q.Coef[j] = int32(r.Intn(2000)) + 1
		}
		cf.Planes[pi] = q
	}
	return cf
}

// TestCoeffExtentInvariant decodes a run of packets of one geometry
// into one recycled frame, as a jpegdecode stream slot does: busy,
// flat, busy and quality-100 noise pictures, and truncated and
// bit-flipped packets that fail midway and leave a half-written frame
// for the next decode. After each failure the frame must still
// inverse-transform, slice by slice, without a panic; each successful
// decode must equal a fresh one, record for record.
func TestCoeffExtentInvariant(t *testing.T) {
	const w, h = 64, 48
	enc := func(f *media.Frame, q int) []byte {
		data, err := Encode(f, q)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	busy := enc(media.NewGenerator(w, h, 23).Next(), 95)
	flat := enc(media.NewFrame(w, h), 30)
	noise := enc(noiseFrame(w, h, 24), 100)
	r := media.NewRNG(25)
	var packets [][]byte
	for _, p := range [][]byte{busy, flat, busy, noise, flat, noise, busy} {
		packets = append(packets, p, p[:9+r.Intn(len(p)-9)])
		mut := bytes.Clone(p)
		for k := 0; k < 3; k++ {
			bit := 9*8 + r.Intn((len(mut)-9)*8)
			mut[bit/8] ^= 0x80 >> (bit % 8)
		}
		packets = append(packets, mut)
	}
	cf := NewCoeffFrame(w, h)
	failed := 0
	for i, p := range packets {
		got, err := DecodeEntropyInto(cf, p)
		if err != nil {
			failed++
			idctEverySlice(cf)
			continue
		}
		want, _ := DecodeEntropy(p)
		if got.Stats != want.Stats {
			t.Fatalf("packet %d: recycled stats %+v, fresh %+v", i, got.Stats, want.Stats)
		}
		for pi := range want.Planes {
			if !samePlane(got.Planes[pi], want.Planes[pi]) {
				t.Fatalf("packet %d plane %d: recycled decode differs from a fresh one", i, pi)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no packet failed midway")
	}
}

func exactPackets(t testing.TB) [][]byte {
	var out [][]byte
	for _, c := range []struct{ w, h, q int }{{32, 16, 75}, {48, 32, 30}, {32, 32, 100}} {
		enc, err := Encode(media.NewGenerator(c.w, c.h, uint64(c.q)).Next(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	// Noise at quality 100 reaches the long (>9-bit) AC codes.
	enc, err := Encode(noiseFrame(32, 16, 19), 100)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, enc)
}

// TestDecodeEntropyExact is the deterministic part of
// FuzzDecodeEntropy: every truncation of each packet and a few thousand
// bit flips, all of which must decode (or fail) exactly as the
// bit-serial reference does.
func TestDecodeEntropyExact(t *testing.T) {
	seen := map[string]int{}
	r := media.NewRNG(20)
	packets := exactPackets(t)
	for _, enc := range packets {
		seen[checkDecodeEntropy(t, enc)]++
		for cut := 0; cut < len(enc); cut++ {
			seen[checkDecodeEntropy(t, enc[:cut])]++
		}
		flips := 1500
		if testing.Short() {
			flips = 300
		}
		for i := 0; i < flips; i++ {
			mut := bytes.Clone(enc)
			for k := 1 + r.Intn(3); k > 0; k-- {
				bit := 9*8 + r.Intn((len(mut)-9)*8)
				mut[bit/8] ^= 0x80 >> (bit % 8)
			}
			seen[checkDecodeEntropy(t, mut)]++
		}
		// A plane that ends early: shrink the Y length field so the
		// bitstream runs out inside a block.
		mut := bytes.Clone(enc)
		mut[12]--
		seen[checkDecodeEntropy(t, mut[:len(mut)-1])]++
	}
	// Sixteen 1-bits prefix no code of any table.
	bad := append(bytes.Clone(packets[0][:9]), 0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff)
	seen[checkDecodeEntropy(t, bad)]++
	for _, class := range []string{"ok", "overrun", "invalid code", "run overflow", "container"} {
		if seen[class] == 0 {
			t.Errorf("no input exercised outcome %q (saw %v)", class, seen)
		}
	}
}

// TestDecodeEntropyExactErrors cuts a hand-built Y plane inside the
// last AC symbol of its first block, at every bit, where the order of a
// decode's checks decides the error: the block has reached zigzag index
// 49 by three ZRLs, and then comes a coefficient whose run of 15 lands
// past the block (0xfa, whose 16-bit code ends in a 0 that reads the
// same past the end), one whose run stays inside (0x0a, then an EOB),
// a ZRL (which ends the block at index 65 without an error) or an EOB. A DC category
// of 0-7 shifts each cut through the eight bit positions of a byte.
func TestDecodeEntropyExactErrors(t *testing.T) {
	base, err := Encode(media.NewFrame(16, 16), 75)
	if err != nil {
		t.Fatal(err)
	}
	yLen := int(binary.BigEndian.Uint32(base[9:]))
	seen := map[string]int{}
	for _, last := range []byte{0xfa, 0x0a, 0xf0, 0x00} {
		for cat := uint(0); cat < 8; cat++ {
			w := bitio.NewWriter()
			dcLumaEnc.encode(w, byte(cat))
			w.WriteBits(1<<cat-1, cat)
			for k := 0; k < 3; k++ {
				acLumaEnc.encode(w, 0xf0)
			}
			acLumaEnc.encode(w, last)
			if size := uint(last & 15); size != 0 {
				w.WriteBits(0x2aa&(1<<size-1), size)
				acLumaEnc.encode(w, 0x00) // reached only by 0x0a
			}
			for b := 1; b < 4; b++ { // the other blocks: DC 0, EOB
				dcLumaEnc.encode(w, 0)
				acLumaEnc.encode(w, 0x00)
			}
			y := w.Bytes()
			for cut := len(y); cut >= 0; cut-- {
				pkt := binary.BigEndian.AppendUint32(bytes.Clone(base[:9]), uint32(cut))
				pkt = append(append(pkt, y[:cut]...), base[13+yLen:]...)
				seen[fmt.Sprintf("%#02x %s", last, checkDecodeEntropy(t, pkt))]++
			}
		}
	}
	for _, want := range []string{"0xfa overrun", "0xfa run overflow", "0x0a overrun", "0x0a ok", "0xf0 overrun", "0xf0 ok", "0x00 ok"} {
		if seen[want] == 0 {
			t.Errorf("no cut gave %q (saw %v)", want, seen)
		}
	}
}

// TestDecodeEntropyExactJPiP holds a picture of the video at the JPiP
// geometry (1280×720, quality 75) to the bit-serial reference: whole,
// and with its Y plane cut to end in each of its last 16 bytes, so the
// tail fill runs after thousands of wide ones.
func TestDecodeEntropyExactJPiP(t *testing.T) {
	enc, err := Encode(media.NewGenerator(1280, 720, 1).Next(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if class := checkDecodeEntropy(t, enc); class != "ok" {
		t.Fatalf("whole packet: %s", class)
	}
	n := int(binary.BigEndian.Uint32(enc[9:]))
	seen := map[string]int{}
	for cut := 1; cut <= 16; cut++ {
		mut := binary.BigEndian.AppendUint32(bytes.Clone(enc[:9]), uint32(n-cut))
		mut = append(append(mut, enc[13:13+n-cut]...), enc[13+n:]...)
		seen[checkDecodeEntropy(t, mut)]++
	}
	if seen["overrun"] == 0 {
		t.Errorf("no cut overran the Y plane (saw %v)", seen)
	}
}

// window is the decoder's bit window at the start of buf.
func window(buf []byte) (uint64, uint) {
	_, acc, n := bitio.Fill(buf, 0, 0, 0)
	return acc, n
}

// TestHuffLookahead holds every lookahead word of every table, followed
// by all-zero and by all-one bits, to the bit-serial decoder: resolve
// gives its symbol, code length, bits to consume and magnitude value (or
// its error), and the lookahead word agrees with both on every field it
// carries. Its n, the "magnitude fits" marker, is set exactly where code
// and magnitude fit in lookBits bits; a word without it keeps the code
// length when the code fits, and is zero when it does not.
func TestHuffLookahead(t *testing.T) {
	for ti, d := range []*huffDecoder{dcLumaDec, dcChromaDec, acLumaDec, acChromaDec} {
		for idx, look := range d.look {
			for _, fill := range []uint32{0, 1<<(32-lookBits) - 1} {
				var buf [4]byte
				binary.BigEndian.PutUint32(buf[:], uint32(idx)<<(32-lookBits)|fill)
				ref := &refBitReader{buf: buf[:]}
				sym, refErr := refHuffDecode(d, ref)
				got, err := d.resolve(window(buf[:]))
				if errClass(err) != errClass(refErr) {
					t.Fatalf("table %d index %#x: resolve error %v, reference %v", ti, idx, err, refErr)
				}
				if refErr != nil {
					if look != 0 {
						t.Fatalf("table %d index %#x: lookahead word %#x for a code the reference rejects", ti, idx, uint32(look))
					}
					continue
				}
				l := uint(ref.bitsRead())
				size := uint(sym & 0x0f)
				mb, _ := ref.readBits(size)
				v := extendMagnitude(mb, size)
				if got.sym() != sym || got.codeLen() != l || got.n() != l+size || got.value() != v || got != makeWord(l+size, sym, v) {
					t.Fatalf("table %d index %#x: resolve %#x (sym %#x, code %d, n %d, v %d), reference sym %#x, code %d, n %d, v %d",
						ti, idx, uint32(got), got.sym(), got.codeLen(), got.n(), got.value(), sym, l, l+size, v)
				}
				var want huffWord // a code longer than the index
				switch {
				case l+size <= lookBits:
					want = got
				case l <= lookBits:
					want = makeWord(0, sym, int32(l))
				}
				if look != want || (look.n() != 0) != (l+size <= lookBits) {
					t.Fatalf("table %d index %#x: lookahead %#x, want %#x (code %d bits, magnitude %d)", ti, idx, uint32(look), uint32(want), l, size)
				}
				if l <= lookBits && (look.sym() != sym || look.codeLen() != l) {
					t.Fatalf("table %d index %#x: lookahead code %#x in %d bits, reference %#x in %d", ti, idx, look.sym(), look.codeLen(), sym, l)
				}
			}
		}
	}
}

func FuzzDecodeEntropy(f *testing.F) {
	for _, enc := range exactPackets(f) {
		f.Add(enc)
		f.Add(enc[:len(enc)*2/3])
		mut := bytes.Clone(enc)
		mut[len(mut)/2] ^= 0x10
		f.Add(mut)
	}
	// A Y plane that ends inside a block: the decode fails midway, with
	// the rows after it still the dirty frame's, and that frame is then
	// inverse-transformed (checkDecodeEntropy).
	mut := bytes.Clone(exactPackets(f)[1])
	mut[12]--
	f.Add(mut[:len(mut)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := ParseHeader(data); err == nil && h.W*h.H > 256*256 {
			t.Skip("header asks for planes too large to fuzz quickly")
		}
		checkDecodeEntropy(t, data)
	})
}

// TestDecodeEntropyIntoRecycled decodes into a frame still holding
// another picture's coefficients and expects exactly a fresh decode,
// with no allocation.
func TestDecodeEntropyIntoRecycled(t *testing.T) {
	gen := media.NewGenerator(64, 48, 21)
	busy, err := Encode(gen.Next(), 95)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Encode(media.NewFrame(64, 48), 30) // all-zero AC: every stale coefficient must go
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2][]byte{{busy, flat}, {flat, busy}} {
		cf, err := DecodeEntropyInto(nil, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		planes := cf.Planes
		got, err := DecodeEntropyInto(cf, pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != cf || got.Planes != planes {
			t.Fatal("matching frame was not reused")
		}
		want, err := DecodeEntropy(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("recycled stats %+v, fresh %+v", got.Stats, want.Stats)
		}
		for i := range want.Planes {
			if !samePlane(got.Planes[i], want.Planes[i]) {
				t.Fatalf("plane %d of a recycled frame differs from a fresh decode", i)
			}
		}
	}

	cf, _ := DecodeEntropyInto(nil, busy)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := DecodeEntropyInto(cf, flat); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode into a matching frame allocates %v objects", n)
	}

	other, err := Encode(media.NewGenerator(32, 32, 22).Next(), 75)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntropyInto(cf, other)
	if err != nil {
		t.Fatal(err)
	}
	if got == cf || got.W != 32 || got.Planes[0].W != 32 {
		t.Fatal("frame of another geometry was reused")
	}
}
