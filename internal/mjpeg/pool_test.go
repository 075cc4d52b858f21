package mjpeg

import "testing"

// TestCoeffFramePool checks that a frame handed back with PutCoeffFrame
// comes back zeroed from the next same-geometry GetCoeffFrame, that
// another geometry never gets it, and that the free-list keeps at most
// coeffPoolMax frames of one geometry.
func TestCoeffFramePool(t *testing.T) {
	// A geometry no other test uses, so the free-list entries are ours.
	const w, h = 48, 16
	cf := GetCoeffFrame(w, h)
	for _, p := range cf.Planes {
		p.C[len(p.C)-1] = 7
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
		for _, c := range p.C {
			if c != 0 {
				t.Fatalf("recycled plane %d not zeroed", i)
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
