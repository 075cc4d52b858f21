package hinch

import (
	"fmt"
	"sync/atomic"

	"xspcl/internal/graph"
	"xspcl/internal/media"
	"xspcl/internal/mjpeg"
	"xspcl/internal/spacecake"
)

// A Stream is the synchronous communication primitive between
// components (paper §2 item 3a): one buffer per in-flight iteration.
// Data written in iteration k is read in the same iteration (ordering
// comes from the task graph). Every stream takes and returns its buffer
// for an iteration at the same two moments, so which buffer an
// iteration uses is decided once for all streams by the run's window:
// the iteration holds buffer set i, and its buffer of stream s is
// s.slots[i].
//
// Buffers for "frame" and "coeff" streams are pre-sized so that
// multiple data-parallel writers can fill disjoint regions of one
// element concurrently; "packet" and untyped streams carry whatever
// payload the producer sets.
type Stream struct {
	name string
	decl graph.StreamDecl
	addr *spacecake.AddressSpace

	// slots[i] is this stream's buffer of set i, created (under the
	// engine lock) when the window first hands set i out. newEngine
	// allocates it at its full length, the stream capacity, and it is
	// filled by index: jobs of other iterations read slots[their set]
	// without the lock, and growing the slice with append would race
	// with those reads.
	slots []*slot
}

// window hands out the run's stream-buffer sets, one per in-flight
// iteration, so the stream capacity of them: an iteration takes one at
// its first dispatch and puts it back when it retires, both under the
// engine lock. free is a LIFO, so when the scheduler keeps few
// iterations in flight the next iteration gets the set — the cache-hot
// buffers, the same simulated addresses — the last one returned, and
// only as many sets are ever filled as iterations actually overlapped
// (hw). active and hw are atomic so App.Snapshot reads them mid-run.
type window struct {
	free   []int        // unheld sets, most recently returned last
	active atomic.Int32 // sets held right now
	hw     atomic.Int32 // most sets ever held at once = sets filled so far
}

// newWindow builds a window of n sets, stacked so that they are first
// handed out in index order.
func newWindow(n int) *window {
	w := &window{free: make([]int, n)}
	for i := range w.free {
		w.free[i] = n - 1 - i
	}
	return w
}

// take hands out a set. fresh reports that it was never held before, so
// its slots are still to be created: unused sets lie below every
// returned one, so one is reached exactly when all used sets are held.
//
//hinch:hotpath
func (w *window) take() (set int, fresh bool) {
	f := len(w.free) - 1
	if f < 0 {
		// canLaunch keeps at most bufCap iterations in flight and each
		// holds one set, so only an engine bug gets here.
		panic("hinch: more stream-buffer sets in use than the stream capacity")
	}
	set, w.free = w.free[f], w.free[:f]
	n := w.active.Add(1)
	if fresh = n > w.hw.Load(); fresh {
		w.hw.Store(n)
	}
	return set, fresh
}

// put returns a set.
//
//hinch:hotpath
func (w *window) put(set int) {
	w.free = append(w.free, set)
	w.active.Add(-1)
}

type slot struct {
	payload any
	region  spacecake.Region
	// own is the element the stream itself created for this slot: a
	// *media.Frame or a *mjpeg.CoeffFrame from its global free-list.
	// Kept separately from payload so that a component replacing the
	// payload with SetOut can never cause the same element to be
	// recycled twice: only own goes back to its free-list, exactly once,
	// when the run's buffers are drained.
	own any
}

// Packet is the element of a "packet" stream: one variable-size unit of
// compressed data.
type Packet struct {
	Data []byte
}

// newStream builds a stream; newEngine sizes its slots. When addr is
// non-nil (sim backend), each buffer gets a simulated address region
// sized for the element type.
func newStream(decl graph.StreamDecl, addr *spacecake.AddressSpace) (*Stream, error) {
	switch decl.Type {
	case "frame", "coeff":
		if decl.W <= 0 || decl.H <= 0 {
			return nil, fmt.Errorf("hinch: %s stream %q needs positive dimensions", decl.Type, decl.Name)
		}
		if decl.Type == "coeff" && (decl.W%16 != 0 || decl.H%16 != 0) {
			return nil, fmt.Errorf("hinch: coeff stream %q is %dx%d, want multiples of 16 (whole 4:2:0 blocks)", decl.Name, decl.W, decl.H)
		}
	case "packet", "":
	default:
		return nil, fmt.Errorf("hinch: stream %q has unknown type %q", decl.Name, decl.Type)
	}
	return &Stream{name: decl.Name, decl: decl, addr: addr}, nil
}

// elementBytes returns the simulated footprint of one stream element.
func (s *Stream) elementBytes() int64 {
	switch s.decl.Type {
	case "frame":
		return int64(s.decl.W*s.decl.H) * 3 / 2
	case "coeff":
		// 4 bytes per sample over all three 4:2:0 planes.
		return int64(s.decl.W*s.decl.H) * 3 / 2 * 4
	case "packet":
		c := s.decl.Cap
		if c <= 0 {
			c = 64 << 10
		}
		return int64(c)
	}
	return 0
}

// newSlot allocates a fresh buffer. Frame and coefficient-frame
// payloads come from their global free-lists (zeroed, so contents match
// a fresh NewFrame or NewCoeffFrame) and return to them when the run
// ends and drainFrames dissolves the slots.
func (s *Stream) newSlot() *slot {
	sl := &slot{}
	switch s.decl.Type {
	case "frame":
		f := media.GetFrame(s.decl.W, s.decl.H)
		sl.own, sl.payload = f, f
	case "coeff":
		cf := mjpeg.GetCoeffFrame(s.decl.W, s.decl.H)
		sl.own, sl.payload = cf, cf
	}
	if s.addr != nil {
		if b := s.elementBytes(); b > 0 {
			sl.region = s.addr.Alloc(b)
		}
	}
	return sl
}

// drainFrames returns the stream's own frame and coefficient-frame
// payloads to their global free-lists. Called once, after the run has
// fully stopped, and only for the window's free sets: after a clean
// finish that is every set that was filled. A set still held after an
// aborted run keeps its frames, which simply fall to the GC with the
// App — never recycle a frame a failed component might still reference.
func (s *Stream) drainFrames(free []int) {
	for _, set := range free {
		// A nil slot: the set was never handed out.
		if sl := s.slots[set]; sl != nil && sl.own != nil {
			switch own := sl.own.(type) {
			case *media.Frame:
				media.PutFrame(own)
			case *mjpeg.CoeffFrame:
				mjpeg.PutCoeffFrame(own)
			}
			sl.own = nil
			sl.payload = nil
		}
	}
}

// Name returns the stream's declared name.
func (s *Stream) Name() string { return s.name }

// Decl returns the stream's declaration.
func (s *Stream) Decl() graph.StreamDecl { return s.decl }

// FramePlaneRegion returns the simulated region covering rows [r0, r1)
// of the given plane within a frame stream slot region. The frame
// layout is planar Y, U, V (4:2:0).
func FramePlaneRegion(slotRegion spacecake.Region, w, h int, plane media.PlaneID, r0, r1 int) spacecake.Region {
	if r1 <= r0 {
		return spacecake.Region{}
	}
	if slotRegion.Bytes == 0 {
		return spacecake.Region{}
	}
	pw, _ := media.PlaneDims(plane, w, h)
	var base int64
	switch plane {
	case media.PlaneY:
		base = 0
	case media.PlaneU:
		base = int64(w * h)
	case media.PlaneV:
		base = int64(w*h) + int64((w/2)*(h/2))
	}
	return slotRegion.Sub(base+int64(r0*pw), int64((r1-r0)*pw))
}

// CoeffPlaneRegion returns the simulated region covering the
// coefficients of pixel rows [r0, r1) of the given plane within a coeff
// stream slot region (4 bytes per sample, planar layout).
func CoeffPlaneRegion(slotRegion spacecake.Region, w, h int, plane media.PlaneID, r0, r1 int) spacecake.Region {
	if r1 <= r0 || slotRegion.Bytes == 0 {
		return spacecake.Region{}
	}
	pw, _ := media.PlaneDims(plane, w, h)
	var base int64
	switch plane {
	case media.PlaneY:
		base = 0
	case media.PlaneU:
		base = int64(w*h) * 4
	case media.PlaneV:
		base = int64(w*h)*4 + int64((w/2)*(h/2))*4
	}
	return slotRegion.Sub(base+int64(r0*pw)*4, int64((r1-r0)*pw)*4)
}

// FrameOf extracts a *media.Frame payload, reporting a typed error for
// misuse.
func FrameOf(v any, port string) (*media.Frame, error) {
	f, ok := v.(*media.Frame)
	if !ok {
		return nil, fmt.Errorf("hinch: port %q holds %T, want *media.Frame", port, v)
	}
	return f, nil
}

// PacketOf extracts a *Packet payload, reporting a typed error for
// misuse.
func PacketOf(v any, port string) (*Packet, error) {
	p, ok := v.(*Packet)
	if !ok {
		return nil, fmt.Errorf("hinch: port %q holds %T, want *hinch.Packet", port, v)
	}
	return p, nil
}

// CoeffFrameOf extracts a *mjpeg.CoeffFrame payload, reporting a typed
// error for misuse.
func CoeffFrameOf(v any, port string) (*mjpeg.CoeffFrame, error) {
	cf, ok := v.(*mjpeg.CoeffFrame)
	if !ok {
		return nil, fmt.Errorf("hinch: port %q holds %T, want *mjpeg.CoeffFrame", port, v)
	}
	return cf, nil
}
