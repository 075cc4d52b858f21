package kernels

import (
	"bytes"
	"testing"

	"xspcl/internal/media"
)

// This file pins the specialized fast paths (word-parallel downscale
// and blur: eight pixels per uint64 as 16-bit lanes, four ×4 boxes a
// trip or two loads per ×16 box row, rows in pairs in the vertical blur
// pass; opaque blend copy) to straightforward generic implementations
// written independently below. Every fast path must be bit-identical to
// its generic counterpart.
//
// For the blur and the downscale this is the only independent oracle in
// the repository:
// apps/seq.go and bench/reference.go verify frames against the same
// kernels.Blur*Plane, so a wrong lane trick passes every frame CRC.

// refDownscaleWindow is the generic windowed box downscale: per-sample
// box sums with integer rounded division, no unrolling.
func refDownscaleWindow(dst []uint8, dw, ox, oy, ow int, src []uint8, sw, factor, r0, r1 int) {
	half := factor * factor / 2
	div := factor * factor
	for y := r0; y < r1; y++ {
		for x := 0; x < ow; x++ {
			sum := half
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					sum += int(src[(y*factor+dy)*sw+x*factor+dx])
				}
			}
			dst[(oy+y)*dw+ox+x] = uint8(sum / div)
		}
	}
}

// refBlend is the generic alpha blend, including the alpha==256 case as
// a degenerate blend (inv==0 makes it an exact overwrite).
func refBlend(dst []uint8, dw int, small []uint8, sw, ox, oy, alpha, r0, r1 int) {
	inv := 256 - alpha
	for y := r0; y < r1; y++ {
		for x := 0; x < sw; x++ {
			d := (oy+y)*dw + ox + x
			dst[d] = uint8((int(small[y*sw+x])*alpha + int(dst[d])*inv + 128) >> 8)
		}
	}
}

// refBlurH / refBlurV are the per-sample clamped tap loops the
// specialized paths replaced.
func refBlurH(dst, src []uint8, w, taps, r0, r1 int) {
	radius, kern, shift := blurKernel(taps)
	for y := r0; y < r1; y++ {
		for x := 0; x < w; x++ {
			sum := 1 << (shift - 1)
			for k := -radius; k <= radius; k++ {
				sx := x + k
				if sx < 0 {
					sx = 0
				} else if sx >= w {
					sx = w - 1
				}
				sum += kern[k+radius] * int(src[y*w+sx])
			}
			dst[y*w+x] = uint8(sum >> shift)
		}
	}
}

func refBlurV(dst, src []uint8, w, h, taps, r0, r1 int) {
	radius, kern, shift := blurKernel(taps)
	for y := r0; y < r1; y++ {
		for x := 0; x < w; x++ {
			sum := 1 << (shift - 1)
			for k := -radius; k <= radius; k++ {
				sy := y + k
				if sy < 0 {
					sy = 0
				} else if sy >= h {
					sy = h - 1
				}
				sum += kern[k+radius] * int(src[sy*w+x])
			}
			dst[y*w+x] = uint8(sum >> shift)
		}
	}
}

func TestDownscaleWindowFastPathsMatchGeneric(t *testing.T) {
	// Factors with fast paths (1 a copy, 4 four boxes a trip, 16 two
	// loads per box row) and without (2, 3, 5, 8), composited at both
	// zero and non-zero window offsets. The window width is 25, so a ×4
	// row ends in one two-box step and one per-sample column.
	for _, factor := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, off := range []struct{ ox, oy int }{{0, 0}, {3, 2}} {
			ow, oh := 25, 16
			sw, sh := ow*factor, oh*factor
			dw, dh := ow+off.ox+4, oh+off.oy+4
			src := randomPlane(sw, sh, uint64(100*factor+off.ox))
			got := randomPlane(dw, dh, 7)
			want := append([]uint8(nil), got...)
			DownscaleWindow(got, dw, off.ox, off.oy, ow, oh, src, sw, sh, factor, 0, oh)
			refDownscaleWindow(want, dw, off.ox, off.oy, ow, src, sw, factor, 0, oh)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("factor %d offset (%d,%d): pixel %d: got %d want %d",
						factor, off.ox, off.oy, i, got[i], want[i])
				}
			}
		}
	}
}

// checkDownscaleWindow downscales an ow-wide window of rows [r0, r1)
// by factor, at (ox, oy) of a destination with a margin, from a source
// wider than the window, and compares all of dst with the generic
// loop. pattern picks blurPatterns' source: all 255 is the largest
// lane sum.
func checkDownscaleWindow(t *testing.T, factor, ow, oh, ox, oy, r0, r1, pattern int, seed uint64) {
	t.Helper()
	r := media.NewRNG(seed)
	sw, sh := ow*factor+factor/2+1, oh*factor
	src := make([]uint8, sw*sh)
	for y := 0; y < sh; y++ {
		for x := 0; x < sw; x++ {
			src[y*sw+x] = blurPatterns[pattern].at(x, y, r)
		}
	}
	dw, dh := ox+ow+3, oy+oh+2
	got := randomPlane(dw, dh, seed)
	want := append([]uint8(nil), got...)
	DownscaleWindow(got, dw, ox, oy, ow, oh, src, sw, sh, factor, r0, r1)
	refDownscaleWindow(want, dw, ox, oy, ow, src, sw, factor, r0, r1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("factor %d window %dx%d at (%d,%d) rows [%d,%d) %s: byte %d: got %d want %d",
				factor, ow, oh, ox, oy, r0, r1, blurPatterns[pattern].name, i, got[i], want[i])
		}
	}
}

// TestDownscaleTailsMatchGeneric runs the ×4 and ×16 fast paths over
// every window width from 1 to 17 and 89, 90, 91, 180, 181: every ow%4
// class of the ×4 row (the four-box body, the two-box step and the
// per-sample column, alone and together, PiP's 180 and 90 among them)
// and ×16's accumulator chunk edge at 16/17. Each width runs at ox 0 and
// odd, on the whole window and an inner band, on every blurPatterns
// source.
func TestDownscaleTailsMatchGeneric(t *testing.T) {
	widths := []int{89, 90, 91, 180, 181}
	for ow := 1; ow <= 17; ow++ {
		widths = append(widths, ow)
	}
	const oh = 5
	for _, factor := range []int{4, 16} {
		for _, ow := range widths {
			for _, ox := range []int{0, 3} {
				for _, band := range [][2]int{{0, oh}, {1, oh - 1}} {
					for pattern := range blurPatterns {
						checkDownscaleWindow(t, factor, ow, oh, ox, 2, band[0], band[1], pattern, uint64(factor*1000+ow))
					}
				}
			}
		}
	}
}

// FuzzDownscaleMatchesGeneric lets the fuzzer pick checkDownscaleWindow's
// window, offset, band, pattern and seed for the ×4 and ×16 paths, and
// for ×8 as one of the factors without a fast path. The seeds include
// PiP's and JPiP's inset windows; a source is at most 1280×720 samples.
func FuzzDownscaleMatchesGeneric(f *testing.F) {
	for _, factor := range []int{4, 8, 16} {
		f.Add(factor, 7, 5, 3, 1, 1, 4, uint64(2)) // odd window, inner band
		f.Add(factor, 1, 1, 0, 0, 0, 1, uint64(1)) // one pixel, all 255
		f.Add(factor, 5, 3, 2, 2, 2, 2, uint64(3)) // empty band
		f.Add(factor, 9, 4, 1, 0, 0, 4, uint64(0)) // all 0
	}
	f.Add(4, 180, 144, 524, 416, 0, 144, uint64(4)) // PiP's first Y inset
	f.Add(4, 90, 72, 262, 208, 0, 72, uint64(9))    // its chroma
	f.Add(4, 180, 144, 16, 16, 54, 72, uint64(14))  // second Y inset, band 3 of 8
	f.Add(4, 90, 72, 8, 8, 27, 36, uint64(3))       // its chroma band 3, 0/255 rows
	f.Add(4, 181, 9, 3, 1, 0, 9, uint64(1))         // ow%4 == 1 (per-sample column), all 255
	f.Add(4, 14, 6, 5, 1, 1, 5, uint64(6))          // ow%4 == 2 (two-box step), all 255
	f.Add(4, 91, 8, 1, 2, 0, 8, uint64(2))          // ow%4 == 3 (two-box step and per-sample column), 0/255 columns
	f.Add(4, 180, 8, 0, 0, 0, 8, uint64(2))         // even width, 0/255 columns
	f.Add(8, 160, 90, 0, 0, 0, 90, uint64(1))       // a 1280×720 plane, all 255
	f.Add(16, 80, 44, 0, 0, 0, 44, uint64(4))       // JPiP's Y inset
	f.Add(16, 40, 22, 0, 0, 0, 22, uint64(9))       // its chroma
	f.Add(16, 80, 45, 0, 0, 0, 45, uint64(1))       // a 1280×720 plane, all 255
	f.Add(16, 37, 3, 5, 2, 0, 3, uint64(6))         // ox > 0, width past two accumulator chunks, all 255
	f.Fuzz(func(t *testing.T, factor, ow, oh, ox, oy, r0, r1 int, seed uint64) {
		if (factor != 4 && factor != 8 && factor != 16) || ow < 1 || ow*factor > 1280 || oh < 1 || oh*factor > 720 ||
			ox < 0 || ox > 540 || oy < 0 || oy > 432 || r0 < 0 || r0 > r1 || r1 > oh {
			t.Skip()
		}
		checkDownscaleWindow(t, factor, ow, oh, ox, oy, r0, r1, int(seed%uint64(len(blurPatterns))), seed)
	})
}

func TestBlendPlaneFastPathMatchesGeneric(t *testing.T) {
	// alpha==256 takes the copy fast path (whole-band when the window
	// spans full rows); other alphas take the blend loop.
	cases := []struct{ dw, dh, sw, sh, ox, oy, alpha int }{
		{64, 48, 64, 12, 0, 8, 256}, // full-width opaque: single copy
		{64, 48, 20, 12, 5, 8, 256}, // windowed opaque: per-row copies
		{64, 48, 20, 12, 5, 8, 128},
		{64, 48, 20, 12, 0, 0, 77},
		{64, 48, 64, 48, 0, 0, 256},
	}
	for _, c := range cases {
		small := randomPlane(c.sw, c.sh, uint64(c.alpha+c.ox))
		got := randomPlane(c.dw, c.dh, 9)
		want := append([]uint8(nil), got...)
		BlendPlane(got, c.dw, c.dh, small, c.sw, c.sh, c.ox, c.oy, c.alpha, 0, c.sh)
		refBlend(want, c.dw, small, c.sw, c.ox, c.oy, c.alpha, 0, c.sh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %+v: pixel %d: got %d want %d", c, i, got[i], want[i])
			}
		}
	}
}

// blurPatterns are the source planes the blur oracle runs on: the lane
// extremes (all 0; all 255, the 4088 lane maximum), alternating 0/255
// columns and rows (the largest difference between neighbouring lanes,
// where a carry would show), and random.
var blurPatterns = []struct {
	name string
	at   func(x, y int, r *media.RNG) uint8
}{
	{"zero", func(x, y int, r *media.RNG) uint8 { return 0 }},
	{"max", func(x, y int, r *media.RNG) uint8 { return 255 }},
	{"columns", func(x, y int, r *media.RNG) uint8 { return uint8(255 * (x & 1)) }},
	{"rows", func(x, y int, r *media.RNG) uint8 { return uint8(255 * (y & 1)) }},
	{"random", func(x, y int, r *media.RNG) uint8 { return r.Byte() }},
}

const blurSentinel = 0xA5

// checkBlurBand runs both passes on rows [r0, r1) of a w×h plane and
// compares all of dst with the per-sample reference. dst starts as a
// sentinel, so a word stored past r1 or past the row end shows; src and
// dst sit at odd offsets of larger arrays, so an alignment assumption
// shows; the bytes around dst are checked too.
func checkBlurBand(t *testing.T, w, h, taps, r0, r1, pattern int, seed uint64) {
	t.Helper()
	r := media.NewRNG(seed)
	srcBack := make([]uint8, w*h+16)
	src := srcBack[3 : 3+w*h]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src[y*w+x] = blurPatterns[pattern].at(x, y, r)
		}
	}
	passes := []struct {
		name string
		fast func(dst []uint8)
		ref  func(dst []uint8)
	}{
		{"blurH", func(d []uint8) { BlurHPlane(d, src, w, h, taps, r0, r1) }, func(d []uint8) { refBlurH(d, src, w, taps, r0, r1) }},
		{"blurV", func(d []uint8) { BlurVPlane(d, src, w, h, taps, r0, r1) }, func(d []uint8) { refBlurV(d, src, w, h, taps, r0, r1) }},
	}
	for _, p := range passes {
		gotBack := bytes.Repeat([]uint8{blurSentinel}, w*h+16)
		wantBack := bytes.Repeat([]uint8{blurSentinel}, w*h+16)
		p.fast(gotBack[5 : 5+w*h])
		p.ref(wantBack[5 : 5+w*h])
		for i := range wantBack {
			if gotBack[i] != wantBack[i] {
				t.Fatalf("%s taps=%d w=%d h=%d rows [%d,%d) %s: byte %d (x=%d y=%d): got %d want %d",
					p.name, taps, w, h, r0, r1, blurPatterns[pattern].name, i-5, (i-5)%w, (i-5)/w, gotBack[i], wantBack[i])
			}
		}
	}
}

func TestBlurFastPathsMatchGeneric(t *testing.T) {
	// Every width from one sample to five words plus a tail, and the
	// benchmark's 360: the all-clamped rows, the first width with a word,
	// every length of overlap between the last two words. Every height up
	// to 12 in every band of a 9-slice split: empty bands, one-row bands
	// (a pair that overwrites itself), odd and even bands, halo rows on
	// both sides and the clamp at the top and the bottom of the plane.
	widths := []int{360}
	for w := 1; w <= 41; w++ {
		widths = append(widths, w)
	}
	for _, taps := range []int{3, 5} {
		for _, w := range widths {
			for h := 1; h <= 12; h++ {
				for pattern := range blurPatterns {
					for i := 0; i < 9; i++ {
						r0, r1 := media.SliceRows(h, i, 9)
						checkBlurBand(t, w, h, taps, r0, r1, pattern, uint64(taps*100000+w*100+h))
					}
					checkBlurBand(t, w, h, taps, 0, h, pattern, uint64(w+h))
				}
			}
		}
	}
}

// FuzzBlurMatchesGeneric lets the fuzzer pick the geometry, the band,
// the pattern and the seed of checkBlurBand.
func FuzzBlurMatchesGeneric(f *testing.F) {
	for _, taps := range []int{3, 5} {
		f.Add(360, 288, taps, 32, 64, uint64(1))   // a blur5 job
		f.Add(360, 288, taps, 0, 32, uint64(2))    // top clamp
		f.Add(360, 288, taps, 256, 288, uint64(3)) // bottom clamp
		f.Add(7, 5, taps, 0, 5, uint64(4))         // narrower than a word
		f.Add(8, 3, taps, 1, 2, uint64(0))         // one word, one row, all 0
		f.Add(12, 4, taps, 0, 3, uint64(6))        // first width with a horizontal word; all 255
		f.Add(19, 9, taps, 3, 8, uint64(7))        // overlapping last word; 0/255 columns
		f.Add(33, 12, taps, 2, 11, uint64(8))      // 0/255 rows
	}
	f.Fuzz(func(t *testing.T, w, h, taps, r0, r1 int, seed uint64) {
		if w < 1 || w > 512 || h < 1 || h > 64 || (taps != 3 && taps != 5) || r0 < 0 || r0 > r1 || r1 > h {
			t.Skip()
		}
		checkBlurBand(t, w, h, taps, r0, r1, int(seed%uint64(len(blurPatterns))), seed)
	})
}

// BenchmarkDownscaleFactors times each factor on a whole plane: ×4 at
// PiP's 720×576 Y plane (f4/Y, the geometry of bench's
// kernels.downscale4_mb_s) and its 360×288 chroma (f4/UV, 90 wide, so
// every row ends in the two-box step), the others at 1280×720 (×16 is
// JPiP's; ×2 stands for the factors without a fast path).
func BenchmarkDownscaleFactors(b *testing.B) {
	planes := []struct {
		name         string
		factor, w, h int
	}{
		{"f2", 2, 1280, 720},
		{"f4/Y", 4, 720, 576},
		{"f4/UV", 4, 360, 288},
		{"f16", 16, 1280, 720},
	}
	for _, p := range planes {
		b.Run(p.name, func(b *testing.B) {
			dw, dh := p.w/p.factor, p.h/p.factor
			src := randomPlane(p.w, p.h, uint64(p.factor))
			dst := make([]uint8, dw*dh)
			b.SetBytes(int64(p.w * p.h))
			for i := 0; i < b.N; i++ {
				DownscalePlane(dst, dw, dh, src, p.w, p.h, p.factor, 0, dh)
			}
		})
	}
}

func BenchmarkBlendPlaneAlpha(b *testing.B) {
	dst := randomPlane(720, 576, 2)
	small := randomPlane(180, 144, 3)
	b.SetBytes(180 * 144)
	for i := 0; i < b.N; i++ {
		BlendPlane(dst, 720, 576, small, 180, 144, 16, 16, 128, 0, 144)
	}
}

func BenchmarkBlurH3(b *testing.B) {
	src := randomPlane(360, 288, 6)
	dst := make([]uint8, 360*288)
	b.SetBytes(360 * 288)
	for i := 0; i < b.N; i++ {
		BlurHPlane(dst, src, 360, 288, 3, 0, 288)
	}
}

func BenchmarkBlurV3(b *testing.B) {
	src := randomPlane(360, 288, 7)
	dst := make([]uint8, 360*288)
	b.SetBytes(360 * 288)
	for i := 0; i < b.N; i++ {
		BlurVPlane(dst, src, 360, 288, 3, 0, 288)
	}
}
