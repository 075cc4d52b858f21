// Package conformance implements a differential fuzzing and
// schedule-exploration harness for the Hinch runtime: seeded random
// XSPCL program generators (gen.go and one file per family), a small
// component library whose observable output is an exactly-predictable
// hash chain (this file), a pure sequential reference evaluator
// (gen.go), one runner (run.go), one oracle (oracle.go) and one battery
// (check.go) that runs each generated program on the sim backend and on
// the real backend at several worker counts under schedule
// perturbation, judging every observation.
//
// The components compute nothing useful by design: each one folds its
// identity, the iteration number and its data-parallel position into a
// 64-bit hash carried by the stream payload. Any scheduling defect that
// lets a component run too early, too late, twice, or against a stale
// buffer changes the final hash, so "the output is byte-identical" is a
// complete check, not a sampled one.
package conformance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"xspcl/internal/hinch"
)

// mix folds a sequence of values into a 64-bit hash (xor + 64-bit
// finalizer per value). It is the only arithmetic the conformance
// components perform, shared verbatim with the reference evaluator so
// expected values can be computed without running the scheduler.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		h *= 0xC4CEB9FE1A85EC53
		h ^= h >> 33
	}
	return h
}

// val is the payload flowing through every conformance stream: a spine
// accumulator plus a cell array for data-parallel writers. The source
// allocates one fresh val per iteration; spine components mutate h in
// place and forward the pointer, parallel-group members write disjoint
// cells. The generator assigns every group a disjoint, contiguous cell
// range and inserts a fold stage after it, so all concurrent writes are
// race-free by construction and every cell feeds back into h before the
// sink reads it.
type val struct {
	h     uint64
	cells []uint64
}

// cellRange is a half-open [Lo, Hi) range of cell indices.
type cellRange struct{ Lo, Hi int }

func (r cellRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// parseRanges parses "lo:hi;lo:hi" (empty string → nil).
func parseRanges(s string) ([]cellRange, error) {
	if s == "" {
		return nil, nil
	}
	var out []cellRange
	for _, part := range strings.Split(s, ";") {
		lo, hi, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("conformance: bad range %q", part)
		}
		var r cellRange
		var err error
		if r.Lo, err = strconv.Atoi(lo); err != nil {
			return nil, fmt.Errorf("conformance: bad range %q: %v", part, err)
		}
		if r.Hi, err = strconv.Atoi(hi); err != nil {
			return nil, fmt.Errorf("conformance: bad range %q: %v", part, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func formatRanges(rs []cellRange) string {
	s := ""
	for i, r := range rs {
		if i > 0 {
			s += ";"
		}
		s += r.String()
	}
	return s
}

// spin burns a deterministic amount of CPU so jobs have non-trivial,
// varied durations — pure yield-point perturbation alone leaves most
// jobs near-instant and misses overlap windows.
func spinWork(n int) uint64 {
	acc := uint64(1)
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// csrc emits one fresh val per iteration: h = mix(stamp, iter), cells
// zeroed. With frames=F it returns EOS at iteration F.
type csrc struct {
	stamp  uint64
	frames int
	cells  int
}

func (c *csrc) Init(ic *hinch.InitContext) error {
	var err error
	if c.stamp, err = ic.Uint64Param("stamp", 0); err != nil {
		return err
	}
	if c.frames, err = ic.IntParam("frames", 0); err != nil {
		return err
	}
	c.cells, err = ic.IntParam("cells", 0)
	return err
}

func (c *csrc) Run(rc *hinch.RunContext) error {
	if c.frames > 0 && rc.Iteration() >= c.frames {
		return hinch.EOS
	}
	rc.SetOut("out", &val{
		h:     mix(c.stamp, uint64(rc.Iteration())),
		cells: make([]uint64, c.cells),
	})
	return nil
}

// cwork is a spine transform: it folds its configured cell ranges and
// its stamp into the accumulator, then forwards the payload. Spine
// stages are strictly sequential in the task graph (everything between
// two of them depends on the first and is depended on by the second),
// so the in-place mutation is race-free.
type cwork struct {
	stamp uint64
	folds []cellRange
	spin  int
}

func (c *cwork) Init(ic *hinch.InitContext) error {
	var err error
	if c.stamp, err = ic.Uint64Param("stamp", 0); err != nil {
		return err
	}
	if c.spin, err = ic.IntParam("spin", 0); err != nil {
		return err
	}
	c.folds, err = parseRanges(ic.StringParam("fold", ""))
	return err
}

func (c *cwork) Run(rc *hinch.RunContext) error {
	v := rc.In("in").(*val)
	spinWork(c.spin)
	v.h = workStep(v.h, c.stamp, uint64(rc.Iteration()), c.folds, v.cells)
	rc.SetOut("out", v)
	return nil
}

// workStep is cwork's transfer function, shared with the evaluator.
func workStep(h, stamp, iter uint64, folds []cellRange, cells []uint64) uint64 {
	h = mix(h, stamp, iter)
	for _, r := range folds {
		for i := r.Lo; i < r.Hi; i++ {
			h = mix(h, cells[i])
		}
	}
	return h
}

// creconf is a cwork that also accepts reconfiguration requests
// (paper §3.1's component reconfiguration interface). Requests are
// counted and do not influence the hash. Where one lands is fixed on
// every backend: a request delivered by the manager entry of iteration
// k reaches the instance's first Run after k.
type creconf struct {
	cwork
	reqs atomic.Int64
}

func (c *creconf) Reconfigure(string) error {
	c.reqs.Add(1)
	return nil
}

// ccell is a data-parallel group member: copy i writes exactly
// cells[base+i]. Its lineage input depends on the group shape:
//
//   - readbase < 0: reads the spine accumulator h (written by the
//     stage the group depends on — a plain slice/task member);
//   - readn == 0: reads cells[readbase+i] only (a chained ccell inside
//     the same replicated parblock — same copy, so same dependency);
//   - readn > 0: reads cells[readbase+j] for j in {i-1,i,i+1}∩[0,readn)
//     (a crossdep parblock reading its Figure-5 neighbours in the
//     previous parblock — exactly the edges BuildPlan created, so a
//     scheduler that violates them reads a stale cell and is caught).
type ccell struct {
	stamp    uint64
	base     int
	readbase int
	readn    int
	spin     int
}

func (c *ccell) Init(ic *hinch.InitContext) error {
	var err error
	if c.stamp, err = ic.Uint64Param("stamp", 0); err != nil {
		return err
	}
	if c.base, err = ic.RequireInt("base"); err != nil {
		return err
	}
	if c.readbase, err = ic.IntParam("readbase", -1); err != nil {
		return err
	}
	if c.readn, err = ic.IntParam("readn", 0); err != nil {
		return err
	}
	c.spin, err = ic.IntParam("spin", 0)
	return err
}

func (c *ccell) Run(rc *hinch.RunContext) error {
	v := rc.In("in").(*val)
	spinWork(c.spin)
	i := rc.Slice()
	v.cells[c.base+i] = cellStep(c.stamp, uint64(rc.Iteration()), i, rc.NSlices(), c.readbase, c.readn, v.h, v.cells)
	return nil
}

// cellStep is ccell's transfer function, shared with the evaluator.
func cellStep(stamp, iter uint64, i, n, readbase, readn int, h uint64, cells []uint64) uint64 {
	lin := h
	switch {
	case readbase < 0:
	case readn == 0:
		lin = mix(lin, cells[readbase+i])
	default:
		for j := i - 1; j <= i+1; j++ {
			if j >= 0 && j < readn {
				lin = mix(lin, cells[readbase+j])
			}
		}
	}
	return mix(stamp, iter, uint64(i), uint64(n), lin)
}

// cjoin merges two branches of a multi-source program: the "a" payload
// absorbs the "b" accumulator and flows on. Branch cells were already
// folded into their branch's h by that branch's own fold stages.
type cjoin struct {
	stamp uint64
}

func (c *cjoin) Init(ic *hinch.InitContext) error {
	var err error
	c.stamp, err = ic.Uint64Param("stamp", 0)
	return err
}

func (c *cjoin) Run(rc *hinch.RunContext) error {
	va := rc.In("a").(*val)
	vb := rc.In("b").(*val)
	va.h = mix(va.h, vb.h, c.stamp, uint64(rc.Iteration()))
	rc.SetOut("out", va)
	return nil
}

// SinkRec is one recorded sink observation.
type SinkRec struct {
	Iter int
	H    uint64
}

// csink records the final accumulator once per iteration.
type csink struct {
	mu  sync.Mutex
	got []SinkRec
}

func (c *csink) Init(ic *hinch.InitContext) error { return nil }

func (c *csink) Run(rc *hinch.RunContext) error {
	v := rc.In("in").(*val)
	c.mu.Lock()
	c.got = append(c.got, SinkRec{Iter: rc.Iteration(), H: v.h})
	c.mu.Unlock()
	return nil
}

// records returns the recorded observations sorted by iteration.
// Cross-iteration instance ordering makes append order the iteration
// order already; sorting keeps the contract independent of it.
func (c *csink) records() []SinkRec {
	c.mu.Lock()
	out := append([]SinkRec(nil), c.got...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out
}

// ctrig emits an event into a queue at fuzzed iterations — the
// generated programs' source of mid-stream reconfiguration requests.
// It has no ports: it rides the spine as a pure event producer.
type ctrig struct {
	queue string
	event string
	every int
	start int
}

func (c *ctrig) Init(ic *hinch.InitContext) error {
	c.queue = ic.StringParam("queue", "")
	c.event = ic.StringParam("event", "")
	var err error
	if c.every, err = ic.IntParam("every", 0); err != nil {
		return err
	}
	c.start, err = ic.IntParam("start", 0)
	return err
}

func (c *ctrig) Run(rc *hinch.RunContext) error {
	it := rc.Iteration()
	if c.every > 0 && it >= c.start && (it-c.start)%c.every == 0 {
		return rc.Emit(c.queue, hinch.Event{Name: c.event})
	}
	return nil
}

// Registry returns the conformance component registry. Each call
// returns a fresh registry; instances hold per-run state (the sink's
// records), so registries must not be shared between runs.
func Registry() *hinch.Registry {
	r := hinch.NewRegistry()
	r.Register("csrc", hinch.ClassSpec{
		New: func() hinch.Component { return &csrc{} },
		Out: []string{"out"},
		Doc: "hash-chain source: fresh payload per iteration, EOS after frames",
	})
	r.Register("cwork", hinch.ClassSpec{
		New: func() hinch.Component { return &cwork{} },
		In:  []string{"in"},
		Out: []string{"out"},
		Doc: "spine transform: folds stamp + cell ranges into the accumulator",
		// Run reads only Init-time config and the per-iteration payload,
		// so concurrent iterations of one instance are race-free.
		Stateless: true,
		// Identity over the payload format: whatever flows in flows out.
		Signature: "in: F; out: F",
	})
	r.Register("creconf", hinch.ClassSpec{
		New:       func() hinch.Component { return &creconf{} },
		In:        []string{"in"},
		Out:       []string{"out"},
		Doc:       "cwork with a reconfiguration interface (requests counted, hash-neutral)",
		Signature: "in: F; out: F",
	})
	r.Register("ccell", hinch.ClassSpec{
		New: func() hinch.Component { return &ccell{} },
		In:  []string{"in"},
		Out: []string{"out"},
		Doc: "data-parallel member: writes cells[base+slice] from its lineage input",
		// Writes only its own disjoint cell of the per-iteration payload.
		Stateless: true,
		Signature: "in: F; out: F",
	})
	r.Register("cjoin", hinch.ClassSpec{
		New: func() hinch.Component { return &cjoin{} },
		In:  []string{"a", "b"},
		Out: []string{"out"},
		Doc: "merges two source branches into one spine",
		// Pure function of the two per-iteration payloads and the stamp.
		Stateless: true,
		// The spine format follows branch a; branch b is unconstrained.
		Signature: "a: F; b: G; out: F",
	})
	r.Register("csink", hinch.ClassSpec{
		New: func() hinch.Component { return &csink{} },
		In:  []string{"in"},
		Doc: "records the final accumulator per iteration",
	})
	r.Register("ctrig", hinch.ClassSpec{
		New: func() hinch.Component { return &ctrig{} },
		Doc: "emits an event every N iterations from a start iteration",
	})
	return r
}
