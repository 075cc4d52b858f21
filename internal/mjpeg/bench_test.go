package mjpeg

import (
	"fmt"
	"testing"

	"xspcl/internal/media"
)

func benchFrame(b *testing.B, w, h int) (*media.Frame, []byte) {
	b.Helper()
	f := media.NewGenerator(w, h, 1).Next()
	enc, err := Encode(f, 75)
	if err != nil {
		b.Fatal(err)
	}
	return f, enc
}

func BenchmarkEncode(b *testing.B) {
	f, _ := benchFrame(b, 320, 240)
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(f, 75); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEntropy(b *testing.B) {
	f, enc := benchFrame(b, 320, 240)
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEntropy(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSizes are the geometries the IDCT and entropy benchmarks run at:
// the small test frame and the 1280×720 frame of the JPiP workload.
var benchSizes = []struct{ w, h int }{{320, 240}, {1280, 720}}

func BenchmarkIDCTPlaneRows(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			_, enc := benchFrame(b, sz.w, sz.h)
			cf, err := DecodeEntropy(enc)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]uint8, sz.w*sz.h)
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				IDCTPlaneRows(dst, cf.Planes[0], 0, sz.h)
			}
		})
	}
}

func BenchmarkFDCT8x8(b *testing.B) {
	var in, out [64]int32
	for i := range in {
		in[i] = int32(i) - 32
	}
	for i := 0; i < b.N; i++ {
		FDCT8x8(&out, &in)
	}
}

func BenchmarkDecodeEntropyInto(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			f, enc := benchFrame(b, sz.w, sz.h)
			cf, err := DecodeEntropy(enc)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(f.Bytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeEntropyInto(cf, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
