package kernels

import (
	"fmt"
	"testing"

	"xspcl/internal/media"
)

func BenchmarkBlendPlane(b *testing.B) {
	dst := randomPlane(720, 576, 2)
	small := randomPlane(180, 144, 3)
	b.SetBytes(180 * 144)
	for i := 0; i < b.N; i++ {
		BlendPlane(dst, 720, 576, small, 180, 144, 16, 16, 256, 0, 144)
	}
}

func BenchmarkBlurH5(b *testing.B) {
	src := randomPlane(360, 288, 4)
	dst := make([]uint8, 360*288)
	b.SetBytes(360 * 288)
	for i := 0; i < b.N; i++ {
		BlurHPlane(dst, src, 360, 288, 5, 0, 288)
	}
}

func BenchmarkBlurV5(b *testing.B) {
	src := randomPlane(360, 288, 5)
	dst := make([]uint8, 360*288)
	b.SetBytes(360 * 288)
	for i := 0; i < b.N; i++ {
		BlurVPlane(dst, src, 360, 288, 5, 0, 288)
	}
}

// BenchmarkBlurBand times the blur passes at the shape one blur5 job
// has: band 4 of a 9-slice split of 360x288 (32 rows of 360, inside the
// full plane so the vertical pass reads real halo rows).
func BenchmarkBlurBand(b *testing.B) {
	const w, h = 360, 288
	r0, r1 := media.SliceRows(h, 4, 9)
	src := randomPlane(w, h, 8)
	dst := make([]uint8, w*h)
	for _, taps := range []int{3, 5} {
		b.Run(fmt.Sprintf("h%d", taps), func(b *testing.B) {
			b.SetBytes(int64((r1 - r0) * w))
			for i := 0; i < b.N; i++ {
				BlurHPlane(dst, src, w, h, taps, r0, r1)
			}
		})
		b.Run(fmt.Sprintf("v%d", taps), func(b *testing.B) {
			b.SetBytes(int64((r1 - r0) * w))
			for i := 0; i < b.N; i++ {
				BlurVPlane(dst, src, w, h, taps, r0, r1)
			}
		})
	}
}

// BenchmarkDownscaleBand times the ×4 downscale at the shape one pip12
// downscale job has: band 3 of an 8-slice split of the 180×144 Y inset
// (18 output rows from 720×576) and of its 90×72 chroma (9 rows).
func BenchmarkDownscaleBand(b *testing.B) {
	for _, p := range []struct {
		name string
		w, h int
	}{{"Y", 720, 576}, {"UV", 360, 288}} {
		b.Run(p.name, func(b *testing.B) {
			dw, dh := p.w/4, p.h/4
			r0, r1 := media.SliceRows(dh, 3, 8)
			src := randomPlane(p.w, p.h, 9)
			dst := make([]uint8, dw*dh)
			b.SetBytes(int64((r1 - r0) * 4 * p.w))
			for i := 0; i < b.N; i++ {
				DownscalePlane(dst, dw, dh, src, p.w, p.h, 4, r0, r1)
			}
		})
	}
}
