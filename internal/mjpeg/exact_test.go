package mjpeg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"xspcl/internal/bitio"
	"xspcl/internal/media"
)

// TestBasisSymmetry pins the table identities the even/odd transforms
// and the DC-only shortcut rest on. They hold for the exact cosines;
// this checks they survived rounding to dctBits.
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
// through a one-block IDCTPlaneRows, against the dense references.
func FuzzIDCT(f *testing.F) {
	r := media.NewRNG(19)
	var blk [64]int32
	for i := 0; i < 8; i++ {
		randomCoeffBlock(r, i, &blk)
		f.Add(blockBytes(&blk))
	}
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
		cp := &CoeffPlane{W: 8, H: 8, C: in[:]}
		var wantPx, gotPx [64]uint8
		refIDCTPlaneRows(wantPx[:], cp, 0, 8)
		IDCTPlaneRows(gotPx[:], cp, 0, 8)
		if gotPx != wantPx {
			t.Fatalf("IDCTPlaneRows(%v) = %v, want %v", in, gotPx, wantPx)
		}
	})
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

// TestIDCTPlaneRowsExact covers the clamp-and-store path, in slices as
// the JPiP application runs it.
func TestIDCTPlaneRowsExact(t *testing.T) {
	r := media.NewRNG(17)
	cp := NewCoeffPlane(64, 48)
	for round := 0; round < 40; round++ {
		for i := 0; i < len(cp.C)/64; i++ {
			randomCoeffBlock(r, r.Intn(4), (*[64]int32)(cp.C[i*64:]))
		}
		want := make([]uint8, cp.W*cp.H)
		got := make([]uint8, cp.W*cp.H)
		refIDCTPlaneRows(want, cp, 0, cp.H)
		for r0 := 0; r0 < cp.H; r0 += 16 {
			IDCTPlaneRows(got, cp, r0, r0+16)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: IDCTPlaneRows differs from the dense reference", round)
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
// coefficients and statistics.
func checkDecodeEntropy(t *testing.T, data []byte) string {
	t.Helper()
	want, wantErr := refDecodeEntropy(data)
	got, gotErr := DecodeEntropy(data)
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
		return errClass(wantErr)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, reference %+v", got.Stats, want.Stats)
	}
	if got.W != want.W || got.H != want.H {
		t.Fatalf("geometry %dx%d, reference %dx%d", got.W, got.H, want.W, want.H)
	}
	for i := range want.Planes {
		g, w := got.Planes[i], want.Planes[i]
		if g.W != w.W || g.H != w.H || !slices.Equal(g.C, w.C) {
			t.Fatalf("plane %d coefficients differ from the reference", i)
		}
	}
	return "ok"
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

func FuzzDecodeEntropy(f *testing.F) {
	for _, enc := range exactPackets(f) {
		f.Add(enc)
		f.Add(enc[:len(enc)*2/3])
		mut := bytes.Clone(enc)
		mut[len(mut)/2] ^= 0x10
		f.Add(mut)
	}
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
			if !slices.Equal(got.Planes[i].C, want.Planes[i].C) {
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
