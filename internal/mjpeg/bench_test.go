package mjpeg

import (
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

func BenchmarkIDCTPlaneRows(b *testing.B) {
	f, enc := benchFrame(b, 320, 240)
	cf, err := DecodeEntropy(enc)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]uint8, 320*240)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		IDCTPlaneRows(dst, cf.Planes[0], 0, 240)
	}
	_ = f
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
	f, enc := benchFrame(b, 320, 240)
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
}
