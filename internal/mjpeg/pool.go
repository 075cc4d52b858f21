package mjpeg

import "sync"

// coeffPoolMax bounds the number of recycled coefficient frames kept
// per geometry; beyond it PutCoeffFrame drops frames for the GC. A
// 1280×720 frame reserves 5.5 MB of coefficients (a decode of the
// synthetic video fills about 0.5 MB of it, and the rest is never
// touched), so the bound is what one JPiP-2 App hands back at most —
// its three coefficient streams times hinch's default PipelineDepth of
// 5 buffer sets — and not media's 256 frames.
const coeffPoolMax = 3 * 5

// coeffPool is the global coefficient-frame free-list, keyed by
// geometry: a mutex-guarded map, like media's frame pool, for the same
// reason (no GC-driven eviction).
var coeffPool = struct {
	sync.Mutex
	free map[[2]int][]*CoeffFrame
}{free: map[[2]int][]*CoeffFrame{}}

// GetCoeffFrame returns an empty w×h coefficient frame, reusing a
// recycled one when the free-list has a match: the twin of
// media.GetFrame. A recycled frame is reset by clearing its extents and
// row offsets (its coefficients are then never read), so callers
// observe exactly NewCoeffFrame's contract.
func GetCoeffFrame(w, h int) *CoeffFrame {
	key := [2]int{w, h}
	var cf *CoeffFrame
	coeffPool.Lock()
	if list := coeffPool.free[key]; len(list) > 0 {
		n := len(list) - 1
		cf = list[n]
		list[n] = nil
		coeffPool.free[key] = list[:n]
	}
	coeffPool.Unlock()
	if cf == nil {
		return NewCoeffFrame(w, h)
	}
	for _, p := range cf.Planes {
		clear(p.Ext)
		clear(p.Row)
	}
	cf.Stats = DecodeStats{}
	return cf
}

// PutCoeffFrame returns cf to the free-list for a later GetCoeffFrame
// of the same geometry. The caller must hold the only live references
// to cf and its planes; nil is ignored, and frames beyond the
// per-geometry bound are dropped for the GC.
func PutCoeffFrame(cf *CoeffFrame) {
	if cf == nil {
		return
	}
	key := [2]int{cf.W, cf.H}
	coeffPool.Lock()
	if list := coeffPool.free[key]; len(list) < coeffPoolMax {
		coeffPool.free[key] = append(list, cf)
	}
	coeffPool.Unlock()
}
