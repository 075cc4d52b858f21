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

// benchInputs are the pictures the IDCT and entropy benchmarks decode:
// the benchmark video at the small test size and at the 1280×720 of the
// JPiP workload, and a textured 1280×720 picture. packets encodes the
// first n pictures of an input.
var benchInputs = []struct {
	name    string
	w, h    int
	packets func(b *testing.B, w, h, n int) [][]byte
}{
	{"320x240", 320, 240, videoPackets},
	{"1280x720", 1280, 720, videoPackets},
	{"1280x720-textured", 1280, 720, texturedPackets},
}

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

// texturedPackets encodes n pictures of the benchmark video with PRNG
// texture in every plane: each sample moves by up to ±textureAmp. The
// video's own blocks are mostly 2×2, and its chroma blocks have one
// coefficient row or column; with the texture most blocks of every plane
// take idct8, with long AC runs.
func texturedPackets(b *testing.B, w, h, n int) [][]byte {
	b.Helper()
	const textureAmp = 12
	gen := media.NewGenerator(w, h, 1)
	r := media.NewRNG(2)
	packets := make([][]byte, n)
	for i := range packets {
		f := gen.Next()
		for _, pl := range media.Planes {
			data, _, _ := f.Plane(pl)
			for j, v := range data {
				data[j] = uint8(min(max(int(v)+r.Intn(2*textureAmp+1)-textureAmp, 0), 255))
			}
		}
		enc, err := Encode(f, 75)
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
	for _, sz := range benchInputs {
		b.Run(sz.name, func(b *testing.B) {
			cfs := rotatedFrames(b, sz.w, sz.h, sz.packets(b, sz.w, sz.h, rotation))
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
	for _, sz := range benchInputs {
		b.Run(sz.name, func(b *testing.B) {
			packets := sz.packets(b, sz.w, sz.h, 2)
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
