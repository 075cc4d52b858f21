package mjpeg

import "testing"

// TestCoeffFramePool checks that a frame handed back with PutCoeffFrame
// comes back empty from the next same-geometry GetCoeffFrame — extents
// and row offsets zero, so every plane inverse-transforms to flat 128
// as a NewCoeffFrame does — that another geometry never gets it, and
// that the free-list keeps at most coeffPoolMax frames of one geometry.
func TestCoeffFramePool(t *testing.T) {
	// A geometry no other test uses, so the free-list entries are ours.
	const w, h = 48, 16
	cf := GetCoeffFrame(w, h)
	// Quality-100 noise: every block busy, so every extent is wide.
	enc, err := Encode(noiseFrame(w, h, 26), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeEntropyInto(cf, enc); err != nil || got != cf {
		t.Fatalf("decode into the pooled frame: %v", err)
	}
	cf.Stats.Symbols = 3
	PutCoeffFrame(cf)
	if g := GetCoeffFrame(16, 48); g == cf {
		t.Fatal("GetCoeffFrame(16, 48) returned a 48x16 frame")
	}
	g := GetCoeffFrame(w, h)
	if g != cf {
		t.Fatalf("GetCoeffFrame(%d, %d) = %p, want the recycled frame %p", w, h, g, cf)
	}
	for i, p := range g.Planes {
		for _, e := range p.Ext {
			if e != 0 {
				t.Fatalf("recycled plane %d keeps a block extent", i)
			}
		}
		for _, r := range p.Row {
			if r != 0 {
				t.Fatalf("recycled plane %d keeps a row offset", i)
			}
		}
		px := make([]uint8, p.W*p.H)
		IDCTPlaneRows(px, p, 0, p.H)
		for _, v := range px {
			if v != 128 {
				t.Fatalf("recycled plane %d inverse-transforms to %d, want flat 128", i, v)
			}
		}
	}
	if g.Stats != (DecodeStats{}) {
		t.Fatalf("recycled stats %+v, want zero", g.Stats)
	}
	PutCoeffFrame(nil)

	for i := 0; i < coeffPoolMax+3; i++ {
		PutCoeffFrame(NewCoeffFrame(w, h))
	}
	coeffPool.Lock()
	n := len(coeffPool.free[[2]int{w, h}])
	coeffPool.Unlock()
	if n != coeffPoolMax {
		t.Errorf("free-list holds %d frames of one geometry, want the bound %d", n, coeffPoolMax)
	}
}
