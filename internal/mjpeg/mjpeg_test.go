package mjpeg

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
	"xspcl/internal/bitio"

	"xspcl/internal/media"
)

func TestDCTRoundTripIsNearIdentity(t *testing.T) {
	r := media.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		var in, freq, out [64]int32
		for i := range in {
			in[i] = int32(r.Intn(256)) - 128
		}
		FDCT8x8(&freq, &in)
		IDCT8x8(&out, &freq)
		for i := range in {
			d := in[i] - out[i]
			if d < -1 || d > 1 {
				t.Fatalf("trial %d: coeff %d: in %d out %d", trial, i, in[i], out[i])
			}
		}
	}
}

func TestDCTDCOnly(t *testing.T) {
	// A flat block must transform to a single DC coefficient.
	var in, freq [64]int32
	for i := range in {
		in[i] = 100
	}
	FDCT8x8(&freq, &in)
	if freq[0] < 795 || freq[0] > 805 { // 100·8 = 800
		t.Fatalf("DC = %d, want ≈800", freq[0])
	}
	for i := 1; i < 64; i++ {
		if freq[i] < -1 || freq[i] > 1 {
			t.Fatalf("AC coeff %d = %d, want ≈0", i, freq[i])
		}
	}
}

func TestDCTLinearity(t *testing.T) {
	// FDCT(a+b) == FDCT(a) + FDCT(b) within rounding.
	r := media.NewRNG(2)
	var a, b, sum, fa, fb, fsum [64]int32
	for i := range a {
		a[i] = int32(r.Intn(100)) - 50
		b[i] = int32(r.Intn(100)) - 50
		sum[i] = a[i] + b[i]
	}
	FDCT8x8(&fa, &a)
	FDCT8x8(&fb, &b)
	FDCT8x8(&fsum, &sum)
	for i := range fsum {
		d := fsum[i] - fa[i] - fb[i]
		if d < -2 || d > 2 {
			t.Fatalf("coeff %d: nonlinear by %d", i, d)
		}
	}
}

func TestQuantTables(t *testing.T) {
	q50 := quantTable(true, 50)
	if q50 != stdLumaQuant {
		t.Fatal("quality 50 should give unscaled table")
	}
	q90, q10 := quantTable(true, 90), quantTable(true, 10)
	for i := range q90 {
		if q90[i] > q50[i] || q10[i] < q50[i] {
			t.Fatalf("quality scaling not monotone at %d", i)
		}
	}
	// Out-of-range qualities clamp rather than misbehave.
	if quantTable(true, -5) != quantTable(true, 1) {
		t.Fatal("low quality not clamped")
	}
	if quantTable(false, 200) != quantTable(false, 100) {
		t.Fatal("high quality not clamped")
	}
}

func TestQuantizeRounds(t *testing.T) {
	cases := []struct{ v, q, want int32 }{
		{0, 10, 0}, {4, 10, 0}, {5, 10, 1}, {14, 10, 1}, {15, 10, 2},
		{-4, 10, 0}, {-5, 10, -1}, {-15, 10, -2},
	}
	for _, c := range cases {
		if got := quantize(c.v, c.q); got != c.want {
			t.Errorf("quantize(%d,%d) = %d, want %d", c.v, c.q, got, c.want)
		}
	}
}

func TestMagnitudeCodingRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw int16) bool {
		v := int32(raw)
		cat := bitCategory(v)
		if v == 0 {
			return cat == 0
		}
		return extendMagnitude(magnitudeBits(v, cat), cat) == v
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCategory(t *testing.T) {
	cases := []struct {
		v    int32
		want uint
	}{{0, 0}, {1, 1}, {-1, 1}, {2, 2}, {3, 2}, {-3, 2}, {4, 3}, {255, 8}, {-256, 9}}
	for _, c := range cases {
		if got := bitCategory(c.v); got != c.want {
			t.Errorf("bitCategory(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHuffmanRoundTripAllSymbols(t *testing.T) {
	// Every symbol of every table must round-trip.
	pairs := []struct {
		spec *huffSpec
		enc  *huffEncoder
		dec  *huffDecoder
	}{
		{&dcLumaSpec, dcLumaEnc, dcLumaDec},
		{&dcChromaSpec, dcChromaEnc, dcChromaDec},
		{&acLumaSpec, acLumaEnc, acLumaDec},
		{&acChromaSpec, acChromaEnc, acChromaDec},
	}
	for pi, p := range pairs {
		total := 0
		for _, c := range p.spec.counts {
			total += c
		}
		if total != len(p.spec.symbols) {
			t.Fatalf("table %d: counts sum %d != %d symbols", pi, total, len(p.spec.symbols))
		}
		for _, sym := range p.spec.symbols {
			w := bitio.NewWriter()
			p.enc.encode(w, sym)
			got, err := p.dec.resolve(window(w.Bytes()))
			if err != nil {
				t.Fatalf("table %d symbol %#x: %v", pi, sym, err)
			}
			if got.sym() != sym || got.codeLen() != uint(p.enc.size[sym]) {
				t.Fatalf("table %d: symbol %#x (%d bits) decoded as %#x (%d bits)", pi, sym, p.enc.size[sym], got.sym(), got.codeLen())
			}
		}
	}
}

func TestEncodeDecodeRoundTripQuality(t *testing.T) {
	f := media.NewGenerator(64, 48, 11).Next()
	for _, q := range []int{30, 75, 95} {
		enc, err := Encode(f, q)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		psnr := media.PSNR(f, dec)
		min := 28.0
		if q >= 90 {
			min = 38
		}
		if psnr < min {
			t.Fatalf("quality %d: PSNR %.1f dB < %.1f", q, psnr, min)
		}
	}
}

func TestHigherQualityIsLargerAndBetter(t *testing.T) {
	f := media.NewGenerator(64, 64, 12).Next()
	e30, _ := Encode(f, 30)
	e90, _ := Encode(f, 90)
	if len(e90) <= len(e30) {
		t.Fatalf("q90 (%d bytes) not larger than q30 (%d bytes)", len(e90), len(e30))
	}
	d30, _ := Decode(e30)
	d90, _ := Decode(e90)
	if media.PSNR(f, d90) <= media.PSNR(f, d30) {
		t.Fatal("higher quality did not improve PSNR")
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	f := media.NewFrame(30, 30) // not macroblock aligned
	if _, err := Encode(f, 75); err == nil {
		t.Fatal("unaligned frame accepted")
	}
	g := media.NewFrame(32, 32)
	if _, err := Encode(g, 0); err == nil {
		t.Fatal("quality 0 accepted")
	}
	if _, err := Encode(g, 101); err == nil {
		t.Fatal("quality 101 accepted")
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	if _, err := Decode([]byte("nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	f := media.NewGenerator(32, 32, 1).Next()
	enc, _ := Encode(f, 75)
	enc[0] ^= 0xff
	if _, err := Decode(enc); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	f := media.NewGenerator(32, 32, 2).Next()
	enc, _ := Encode(f, 75)
	for _, cut := range []int{9, 12, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestStagedDecodeMatchesFused(t *testing.T) {
	f := media.NewGenerator(64, 32, 13).Next()
	enc, err := Encode(f, 75)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := DecodeEntropy(enc)
	if err != nil {
		t.Fatal(err)
	}
	staged := media.NewFrame(cf.W, cf.H)
	for i, pl := range media.Planes {
		data, _, ph := staged.Plane(pl)
		// Apply the IDCT in several slices, as the JPiP app does.
		n := 4
		for s := 0; s < n; s++ {
			r0, r1 := media.SliceRows(ph/8, s, n)
			IDCTPlaneRows(data, cf.Planes[i], r0*8, r1*8)
		}
	}
	if !fused.Equal(staged) {
		t.Fatal("staged decode differs from fused decode")
	}
}

func TestDecodeStatsPlausible(t *testing.T) {
	f := media.NewGenerator(64, 48, 14).Next()
	enc, _ := Encode(f, 75)
	cf, err := DecodeEntropy(enc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := (64*48 + 2*32*24) / 64
	if cf.Stats.Symbols < blocks { // at least one DC symbol per block
		t.Fatalf("symbols %d < blocks %d", cf.Stats.Symbols, blocks)
	}
	if cf.Stats.NonZero == 0 || cf.Stats.Bits == 0 {
		t.Fatal("empty stats")
	}
	if EntropyOps(cf.Stats) <= 0 {
		t.Fatal("non-positive entropy ops")
	}
	if cf.Bytes() != (64*48+2*32*24)*4 {
		t.Fatalf("coeff frame bytes %d", cf.Bytes())
	}
}

func TestEntropyOpsEstimateWithinFactor(t *testing.T) {
	// The workless-mode estimate should be within ~4x of reality for the
	// synthetic video at default quality.
	f := media.NewGenerator(128, 64, 15).Next()
	enc, _ := Encode(f, 75)
	cf, _ := DecodeEntropy(enc)
	actual := EntropyOps(cf.Stats)
	est := EntropyOpsEstimate(128, 64)
	ratio := float64(est) / float64(actual)
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("estimate %d vs actual %d (ratio %.2f)", est, actual, ratio)
	}
}

func TestIDCTRowsAlignmentPanics(t *testing.T) {
	cp := NewCoeffPlane(16, 16)
	dst := make([]uint8, 16*16)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned rows accepted")
		}
	}()
	IDCTPlaneRows(dst, cp, 4, 12)
}

// TestCoeffPlaneBlockLayout pins the packed layout on a decoded
// picture: the records follow each other in raster order with no gap,
// Row[by] is where block row by's first record starts, and the record
// of a block with extent rows × cols holds those coefficients
// row-major. It also pins the shape of an empty plane.
func TestCoeffPlaneBlockLayout(t *testing.T) {
	enc, err := Encode(media.NewGenerator(48, 32, 27).Next(), 95)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := DecodeEntropy(enc)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := refDecodeEntropy(enc)
	wide := false
	for i, cp := range cf.Planes {
		bw := cp.W / 8
		at := 0
		for by := 0; by < cp.H/8; by++ {
			if int(cp.Row[by]) != at {
				t.Fatalf("plane %d: Row[%d] = %d, want %d", i, by, cp.Row[by], at)
			}
			for bx := 0; bx < bw; bx++ {
				b := by*bw + bx
				rows, cols := int(cp.Ext[b]&15), int(cp.Ext[b]>>4)
				wide = wide || rows > 2 && cols > 2
				for k := 0; k < 64; k++ {
					r, c := k/8, k%8
					want := ref.Planes[i][b*64+k]
					if r >= rows || c >= cols {
						if want != 0 {
							t.Fatalf("plane %d block (%d,%d): coefficient %d outside extent %dx%d", i, bx, by, k, rows, cols)
						}
					} else if got := cp.Coef[at+r*cols+c]; got != want {
						t.Fatalf("plane %d block (%d,%d): record[%d] = %d, want coefficient %d = %d", i, bx, by, r*cols+c, got, k, want)
					}
				}
				at += rows * cols
			}
		}
		if int(cp.Row[cp.H/8]) != at {
			t.Fatalf("plane %d: Row[%d] = %d, want %d", i, cp.H/8, cp.Row[cp.H/8], at)
		}
	}
	if !wide {
		t.Fatal("no block with more than 2 rows and 2 columns")
	}

	cp := NewCoeffPlane(32, 16)
	if len(cp.Ext) != 8 || len(cp.Row) != 3 || len(cp.Coef) != 8*64 {
		t.Fatalf("32x16 plane has %d extents, %d row offsets, room for %d coefficients", len(cp.Ext), len(cp.Row), len(cp.Coef))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned coeff plane accepted")
		}
	}()
	NewCoeffPlane(30, 16)
}

// TestCoeffPlanePacked pins the compactness of the packed layout on the
// 1280×720 q75 frame of the synthetic video: Row[H/8] of each plane is
// the sum of rows×cols over its extents, and the frame averages at most
// 8 coefficients a block. Measured: 131 212 coefficients in 21 600
// blocks, 6.07 a block (Y 8.01, U 2.00, V 2.40), so a decode writes
// 0.5 MB where the dense 64-coefficient blocks spanned 5.5 MB.
func TestCoeffPlanePacked(t *testing.T) {
	enc, err := Encode(media.NewGenerator(1280, 720, 1).Next(), 75)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := DecodeEntropy(enc)
	if err != nil {
		t.Fatal(err)
	}
	coefs, blocks := 0, 0
	for i, p := range cf.Planes {
		n := 0
		for _, e := range p.Ext {
			n += int(e&15) * int(e>>4)
		}
		if int(p.Row[p.H/8]) != n {
			t.Fatalf("plane %d: Row[%d] = %d, the extents cover %d coefficients", i, p.H/8, p.Row[p.H/8], n)
		}
		coefs += n
		blocks += len(p.Ext)
	}
	if perBlock := float64(coefs) / float64(blocks); perBlock > 8 {
		t.Fatalf("%d coefficients in %d blocks: %.2f a block, want at most 8", coefs, blocks, perBlock)
	}
}

// TestDecodeAllocatesOnlyItsFrame bounds what one Decode of a 1280×720
// packet allocates: the frame it returns and a few KB, not a
// coefficient frame (it borrows one from GetCoeffFrame's free-list).
func TestDecodeAllocatesOnlyItsFrame(t *testing.T) {
	const w, h = 1280, 720
	enc, err := Encode(media.NewGenerator(w, h, 1).Next(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err != nil { // leaves a frame on the free-list
		t.Fatal(err)
	}
	frame := allocBytes(func() { media.NewFrame(w, h) })
	if got := allocBytes(func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); got > frame+4<<10 {
		t.Fatalf("Decode allocates %d bytes a call, want at most %d (its %d-byte frame plus 4 KB)", got, frame+4<<10, frame)
	}
}

// allocBytes is the number of bytes f allocates, averaged over a few calls.
func allocBytes(f func()) uint64 {
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestContainerRoundTrip(t *testing.T) {
	frames := media.GenerateSequence(32, 32, 4, 16)
	encs, err := EncodeSequence(frames, 75)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, encs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadContainer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(encs) {
		t.Fatalf("got %d frames", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], encs[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	if _, err := ReadContainer(bytes.NewReader([]byte("XXXX\x00\x00\x00\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadContainer(bytes.NewReader([]byte("XMJ1\x00\x00\x00\x02\x00\x00\x00\x05ab"))); err == nil {
		t.Fatal("truncated container accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	f := media.NewGenerator(48, 32, 17).Next()
	a, _ := Encode(f, 75)
	b, _ := Encode(f, 75)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestIDCTOpsAccounting(t *testing.T) {
	if IDCTOps(64) != IDCTOpsPerBlock {
		t.Fatal("one block ops wrong")
	}
	if IDCTOps(128) != 2*IDCTOpsPerBlock {
		t.Fatal("two block ops wrong")
	}
	if FDCTOps(64) != IDCTOps(64) {
		t.Fatal("fdct ops should mirror idct ops")
	}
}
