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

// rotation is the number of coefficient frames the IDCT and entropy
// benchmarks cycle through: a JPiP coefficient stream rotates its
// frames through three slots, so a stage never meets the frame it just
// wrote still in L2.
const rotation = 3

// rotatedFrames decodes packets into rotation frames, frame i from
// packet i%len(packets).
func rotatedFrames(b *testing.B, w, h int, packets [][]byte) []*CoeffFrame {
	b.Helper()
	cfs := make([]*CoeffFrame, rotation)
	for i := range cfs {
		cf, err := DecodeEntropyInto(NewCoeffFrame(w, h), packets[i%len(packets)])
		if err != nil {
			b.Fatal(err)
		}
		cfs[i] = cf
	}
	return cfs
}

// videoPackets encodes the first n pictures of the benchmark video.
func videoPackets(b *testing.B, w, h, n int) [][]byte {
	b.Helper()
	gen := media.NewGenerator(w, h, 1)
	packets := make([][]byte, n)
	for i := range packets {
		enc, err := Encode(gen.Next(), 75)
		if err != nil {
			b.Fatal(err)
		}
		packets[i] = enc
	}
	return packets
}

// BenchmarkIDCTPlaneRows inverse-transforms one plane of three decoded
// pictures in turn, each into its own output plane, for each plane the
// graph's idct components run: Y, mostly 2×2 blocks, and the quarter-size
// U and V, with a different block mix.
func BenchmarkIDCTPlaneRows(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			cfs := rotatedFrames(b, sz.w, sz.h, videoPackets(b, sz.w, sz.h, rotation))
			for i, pl := range media.Planes {
				b.Run(pl.String(), func(b *testing.B) {
					pw, ph := media.PlaneDims(pl, sz.w, sz.h)
					var dst [rotation][]uint8
					for j := range dst {
						dst[j] = make([]uint8, pw*ph)
					}
					b.SetBytes(int64(pw * ph))
					b.ResetTimer()
					for j := 0; j < b.N; j++ {
						IDCTPlaneRows(dst[j%rotation], cfs[j%rotation].Planes[i], 0, ph)
					}
				})
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

// BenchmarkDecodeEntropyInto decodes two pictures of the video in
// turn into three frames in turn, as a jpegdecode stream's slots do:
// each decode overwrites a frame another picture left.
func BenchmarkDecodeEntropyInto(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			packets := videoPackets(b, sz.w, sz.h, 2)
			cfs := rotatedFrames(b, sz.w, sz.h, packets)
			b.SetBytes(int64(sz.w * sz.h * 3 / 2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeEntropyInto(cfs[i%rotation], packets[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGetCoeffFrame recycles a decoded 1280×720 frame through the
// pool: PutCoeffFrame, then the GetCoeffFrame that resets it.
func BenchmarkGetCoeffFrame(b *testing.B) {
	_, enc := benchFrame(b, 1280, 720)
	cf, err := DecodeEntropy(enc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutCoeffFrame(cf)
		if GetCoeffFrame(1280, 720) != cf {
			b.Fatal("the pool did not return the recycled frame")
		}
	}
}
