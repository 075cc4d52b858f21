package conformance

import (
	"fmt"
	"maps"
	"slices"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// This file is the seeded random XSPCL program generator and its
// sequential reference evaluator (the oracle). Every generated program
// is valid by construction — each parallel group's members write a
// disjoint, contiguous cell range and a fold stage after the group
// feeds those cells back into the spine accumulator — so the final
// per-iteration sink hash is an exact function of (iteration, option
// states), computable without running the scheduler.
//
// Program families (all driven by one seed):
//   - single-spine chains of cwork stages and parallel groups
//     (task/slice/crossdep, with nested slice groups in task branches);
//   - multi-source programs: two independent source branches joined by
//     cjoin — these have multiple dep-free entry tasks per iteration,
//     the shape that exposes buffer-publication ordering bugs;
//   - manager programs: 1–2 managers with 1–3 options, ctrig components
//     emitting enable/disable/toggle/reconfig events at fuzzed
//     iterations, and event forwarding between manager queues;
//   - EOS-driven runs (sources with finite frames) vs. fixed-length.

// rnd is a splitmix64 PRNG: self-contained so generated programs are
// reproducible from the seed forever, independent of math/rand.
type rnd struct{ s uint64 }

func newRnd(seed uint64) *rnd { return &rnd{s: seed ^ 0x9E3779B97F4A7C15} }

func (r *rnd) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rnd) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rnd) oneIn(n int) bool { return r.intn(n) == 0 }

// evalState is the reference evaluator's per-iteration state: one val
// per source branch (multi-source programs merge branch 1 into 0).
type evalState struct {
	iter uint64
	vals [2]*val
}

// evalOp is one step of the sequential reference semantics. Ops tagged
// with an option name apply only when that option is enabled.
type evalOp struct {
	option string
	f      func(st *evalState)
}

// TriggerInfo describes one generated ctrig: it pushes Event to Queue
// at iterations Start, Start+Every, Start+2·Every, …
type TriggerInfo struct {
	Every, Start int
	Queue, Event string
}

// Gen is one generated program plus everything the runner needs to
// execute and judge it.
type Gen struct {
	Prog *graph.Program

	SinkName    string
	Triggers    []TriggerInfo
	Reconfs     []string // creconf instance names
	HasEvents   bool
	MultiSource bool

	Frames int // >0: min source frame count (EOS-driven run)
	Iters  int // Run argument; 0 when EOS-driven

	Depth     int // fuzzed Config.PipelineDepth
	StreamCap int // fuzzed Config.StreamCapacity
	NCells    int

	// Faulty family only (GenerateFaulty): the policy leg, the first
	// faulted iteration, p1's retry budget and the injection schedule.
	// Injector is nil in every other family.
	Mode     FaultyMode
	From     int
	Retries  int
	Injector *hinch.SeededFaults

	ops  []evalOp
	srcs []*graph.Node
}

// Config returns the runtime configuration the program is generated
// for: its pipeline depth, stream capacity and (faulty family) fault
// injector, on the given backend and core count.
func (g *Gen) Config(backend hinch.Backend, cores int) hinch.Config {
	cfg := hinch.Config{Backend: backend, Cores: cores, PipelineDepth: g.Depth, StreamCapacity: g.StreamCap}
	if g.Injector != nil {
		cfg.Faults = g.Injector // conditional: a typed-nil injector would defeat the nil check
	}
	return cfg
}

// sourceOp is csrc's oracle step: a fresh payload on branch bid.
func (g *Gen) sourceOp(bid int, stamp uint64) evalOp {
	return evalOp{f: func(st *evalState) {
		st.vals[bid] = &val{h: mix(stamp, st.iter), cells: make([]uint64, g.NCells)}
	}}
}

// workOp is cwork's oracle step on branch bid, applied only while opt
// (when set) is enabled.
func workOp(bid int, opt string, stamp uint64, folds []cellRange) evalOp {
	return evalOp{option: opt, f: func(st *evalState) {
		v := st.vals[bid]
		v.h = workStep(v.h, stamp, st.iter, folds, v.cells)
	}}
}

// cellOp is ccell's oracle step for all n copies of a parblock writing
// cells [base, base+n) on branch bid.
func cellOp(bid int, opt string, stamp uint64, base, n, readbase, readn int) evalOp {
	return evalOp{option: opt, f: func(st *evalState) {
		v := st.vals[bid]
		for i := 0; i < n; i++ {
			v.cells[base+i] = cellStep(stamp, st.iter, i, n, readbase, readn, v.h, v.cells)
		}
	}}
}

// ExpectedIterations returns how many iterations a correct run
// processes.
func (g *Gen) ExpectedIterations() int {
	if g.Frames > 0 {
		return g.Frames
	}
	return g.Iters
}

// Expected computes the oracle sink hash for one iteration under the
// given option states, by running the sequential reference semantics.
func (g *Gen) Expected(iter int, enabled map[string]bool) uint64 {
	st := &evalState{iter: uint64(iter)}
	for _, op := range g.ops {
		if op.option != "" && !enabled[op.option] {
			continue
		}
		op.f(st)
	}
	return st.vals[0].h
}

// Configs replays the program's event traffic sequentially and returns
// the option states each of iterations [0, n) runs under, plus the
// number of reconfigurations those iterations' manager entries start.
// It is the runtime's delivery rule with nothing left to the schedule:
// a trigger's event is stamped with its iteration, the entry of
// iteration k takes the events stamped <= k - Depth, a forward restamps
// with k, and the actions land from iteration k+1 on. Each generated
// option event is bound to one action kind, so the actions an entry
// takes commute and the replay needs no delivery order.
func (g *Gen) Configs(n int) (cfgs []map[string]bool, reconfigs int) {
	type event struct {
		queue, name string
		iter        int
	}
	var queued []event
	for _, t := range g.Triggers {
		for k := t.Start; k < n; k += t.Every {
			queued = append(queued, event{t.Queue, t.Event, k})
		}
	}
	state, mgrs := g.Prog.Options(), g.Prog.Managers()
	for k := range n {
		cfgs = append(cfgs, maps.Clone(state))
		for _, m := range mgrs {
			halted, fwd := false, []event(nil)
			queued = slices.DeleteFunc(queued, func(ev event) bool {
				if ev.queue != m.Queue || ev.iter > k-g.Depth {
					return false
				}
				for _, bind := range m.Bindings {
					if bind.Event != ev.name {
						continue
					}
					for _, act := range bind.Actions {
						// Forward and reconfig actions name no option.
						was := state[act.Option]
						switch act.Kind {
						case graph.ActionEnable:
							state[act.Option] = true
						case graph.ActionDisable:
							state[act.Option] = false
						case graph.ActionToggle:
							state[act.Option] = !was
						case graph.ActionForward:
							fwd = append(fwd, event{act.Queue, ev.name, k})
						}
						halted = halted || state[act.Option] != was
					}
				}
				return true
			})
			queued = append(queued, fwd...)
			if halted {
				reconfigs++
			}
		}
	}
	return cfgs, reconfigs
}

// boundEvent records an (queue, event) pair some manager acts on, so a
// later manager can generate a forward chain to it.
type boundEvent struct{ queue, event string }

// genCtx carries generator state: name counters, the global cell
// cursor, and manager/option budgets.
type genCtx struct {
	g     *Gen
	r     *rnd
	b     *graph.Builder
	comp  int
	strm  int
	cells int
	nMgrs int
	nOpts int
	bound []boundEvent
}

func (c *genCtx) name(prefix string) string {
	c.comp++
	return fmt.Sprintf("%s%d", prefix, c.comp)
}

func (c *genCtx) stream() string {
	s := fmt.Sprintf("s%d", c.strm)
	c.strm++
	c.b.Stream(s)
	return s
}

func (c *genCtx) spinParam(params graph.Params) int {
	if c.r.oneIn(3) {
		spin := 200 + c.r.intn(1500)
		params["spin"] = fmt.Sprint(spin)
		return spin
	}
	return 0
}

// source emits a csrc on a fresh stream. The cells parameter is patched
// in by Generate once the global cell count is known.
func (c *genCtx) source(bid, frames int) (*graph.Node, string) {
	s := c.stream()
	stamp := c.r.next()
	params := graph.Params{"stamp": fmt.Sprint(stamp)}
	if frames > 0 {
		params["frames"] = fmt.Sprint(frames)
	}
	n := c.b.Component(c.name("src"), "csrc", graph.Ports{"out": s}, params)
	c.g.srcs = append(c.g.srcs, n)
	c.g.ops = append(c.g.ops, c.g.sourceOp(bid, stamp))
	return n, s
}

// work emits a spine cwork (or creconf) stage reading cur; it may move
// the spine to a fresh stream when moveOK.
func (c *genCtx) work(cur string, bid int, opt string, folds []cellRange, moveOK bool, class string) (*graph.Node, string) {
	out := cur
	if moveOK && c.r.oneIn(2) {
		out = c.stream()
	}
	stamp := c.r.next()
	params := graph.Params{"stamp": fmt.Sprint(stamp)}
	if len(folds) > 0 {
		params["fold"] = formatRanges(folds)
	}
	c.spinParam(params)
	name := c.name("w")
	n := c.b.Component(name, class, graph.Ports{"in": cur, "out": out}, params)
	if class == "creconf" {
		c.g.Reconfs = append(c.g.Reconfs, name)
	}
	c.g.ops = append(c.g.ops, workOp(bid, opt, stamp, append([]cellRange(nil), folds...)))
	return n, out
}

// cellChain emits 1–2 chained ccell nodes for a parblock replicated n
// times, all in place on cur. The second node reads the first's cell at
// its own copy index (same-copy dependency, race-free).
func (c *genCtx) cellChain(cur string, bid, n int, opt string) []*graph.Node {
	ln := 1 + c.r.intn(2)
	var nodes []*graph.Node
	prevBase := -1
	for k := 0; k < ln; k++ {
		base := c.cells
		c.cells += n
		stamp := c.r.next()
		params := graph.Params{"stamp": fmt.Sprint(stamp), "base": fmt.Sprint(base)}
		if prevBase >= 0 {
			params["readbase"] = fmt.Sprint(prevBase)
		}
		c.spinParam(params)
		nodes = append(nodes, c.b.Component(c.name("p"), "ccell", graph.Ports{"in": cur, "out": cur}, params))
		c.g.ops = append(c.g.ops, cellOp(bid, opt, stamp, base, n, prevBase, 0))
		prevBase = base
	}
	return nodes
}

// group emits one parallel group plus the fold stage that folds its
// cells back into the accumulator. Inside options the fold must stay in
// place (a disabled option must not break the spine's stream flow).
func (c *genCtx) group(cur string, bid int, opt string, moveOK bool) ([]*graph.Node, string) {
	lo := c.cells
	var grp *graph.Node
	switch c.r.intn(3) {
	case 0: // task-parallel branches of cell chains (maybe nested slices)
		nb := 2 + c.r.intn(2)
		branches := make([]*graph.Node, nb)
		for i := range branches {
			if c.r.oneIn(3) {
				n := 2 + c.r.intn(3)
				branches[i] = c.b.Seq(c.b.Parallel(graph.ShapeSlice, n,
					c.b.Seq(c.cellChain(cur, bid, n, opt)...)))
			} else {
				branches[i] = c.b.Seq(c.cellChain(cur, bid, 1, opt)...)
			}
		}
		grp = c.b.Parallel(graph.ShapeTask, 0, branches...)
	case 1: // slice group
		n := 2 + c.r.intn(3)
		grp = c.b.Parallel(graph.ShapeSlice, n, c.b.Seq(c.cellChain(cur, bid, n, opt)...))
	default: // crossdep: block b's copy i reads block b-1's copies i-1..i+1
		nb := 2 + c.r.intn(2)
		n := 2 + c.r.intn(3)
		blocks := make([]*graph.Node, nb)
		prevBase := -1
		for bi := range blocks {
			base := c.cells
			c.cells += n
			stamp := c.r.next()
			params := graph.Params{"stamp": fmt.Sprint(stamp), "base": fmt.Sprint(base)}
			readn := 0
			if prevBase >= 0 {
				readn = n
				params["readbase"] = fmt.Sprint(prevBase)
				params["readn"] = fmt.Sprint(n)
			}
			c.spinParam(params)
			blocks[bi] = c.b.Seq(c.b.Component(c.name("x"), "ccell", graph.Ports{"in": cur, "out": cur}, params))
			c.g.ops = append(c.g.ops, cellOp(bid, opt, stamp, base, n, prevBase, readn))
			prevBase = base
		}
		grp = c.b.Parallel(graph.ShapeCrossdep, n, blocks...)
	}
	fold, out := c.work(cur, bid, opt, []cellRange{{lo, c.cells}}, moveOK, "cwork")
	return []*graph.Node{grp, fold}, out
}

// trigger emits a ctrig feeding queue q with event ev at fuzzed
// iterations.
func (c *genCtx) trigger(q, ev string) *graph.Node {
	every := 2 + c.r.intn(4)
	start := c.r.intn(4)
	c.g.Triggers = append(c.g.Triggers, TriggerInfo{Every: every, Start: start, Queue: q, Event: ev})
	c.g.HasEvents = true
	return c.b.Component(c.name("t"), "ctrig", nil, graph.Params{
		"queue": q, "event": ev,
		"every": fmt.Sprint(every), "start": fmt.Sprint(start),
	})
}

// optionBody emits an option's subgraph: in-place spine stages and
// possibly a cell group, all tagged with the option name.
func (c *genCtx) optionBody(cur string, bid int, oname string) []*graph.Node {
	var kids []*graph.Node
	n := 1 + c.r.intn(2)
	for i := 0; i < n; i++ {
		w, _ := c.work(cur, bid, oname, nil, false, "cwork")
		kids = append(kids, w)
	}
	if c.r.oneIn(3) {
		gn, _ := c.group(cur, bid, oname, false)
		kids = append(kids, gn...)
	}
	return kids
}

// manager emits a manager node (with options, bindings and possibly a
// creconf stage) plus the ctrig components that feed its queue. The
// triggers ride the spine just before the manager.
func (c *genCtx) manager(cur string, bid int) []*graph.Node {
	q := fmt.Sprintf("q%d", c.nMgrs)
	c.b.Queue(q)
	mname := fmt.Sprintf("m%d", c.nMgrs)
	c.nMgrs++

	var kids, trigs []*graph.Node
	var binds []graph.EventBinding
	maybeTrigger := func(ev string) {
		if c.r.intn(3) > 0 {
			trigs = append(trigs, c.trigger(q, ev))
		}
	}

	if c.r.oneIn(2) {
		w, _ := c.work(cur, bid, "", nil, false, "creconf")
		kids = append(kids, w)
		ev := "er" + mname
		binds = append(binds, graph.On(ev, graph.ActionReconfig, "req-"+mname))
		maybeTrigger(ev)
	}

	nopt := 1
	if c.nOpts < 2 && c.r.oneIn(2) {
		nopt = 2
	}
	for i := 0; i < nopt && c.nOpts < 3; i++ {
		oname := fmt.Sprintf("o%d", c.nOpts)
		c.nOpts++
		don := c.r.oneIn(2)
		body := c.optionBody(cur, bid, oname)
		ev := "e" + oname
		kinds := []graph.ActionKind{graph.ActionEnable, graph.ActionDisable, graph.ActionToggle}
		kind := kinds[c.r.intn(3)]
		// An option bound to a disable starts on, or its body could
		// never run (the analyzer's reconfig error).
		don = don || kind == graph.ActionDisable
		kids = append(kids, c.b.Option(oname, don, body...))
		binds = append(binds, graph.On(ev, kind, oname))
		c.bound = append(c.bound, boundEvent{q, ev})
		maybeTrigger(ev)
	}

	// Forward chain: this manager relays an earlier manager's event from
	// its own queue, so a single trigger firing crosses two queues.
	if len(c.bound) > 0 {
		if t := c.bound[c.r.intn(len(c.bound))]; t.queue != q && c.r.oneIn(2) {
			binds = append(binds, graph.On(t.event, graph.ActionForward, t.queue))
			maybeTrigger(t.event)
		}
	}

	return append(trigs, c.b.Manager(mname, q, binds, kids...))
}

// spine emits nSeg spine segments (cwork stages, groups, managers)
// starting from stream cur, returning the nodes and the final stream.
func (c *genCtx) spine(cur string, bid, nSeg int, allowMgr bool) ([]*graph.Node, string) {
	var nodes []*graph.Node
	for i := 0; i < nSeg; i++ {
		switch {
		case allowMgr && c.nMgrs < 2 && c.nOpts < 3 && c.r.oneIn(3):
			nodes = append(nodes, c.manager(cur, bid)...)
		case c.r.oneIn(2):
			ns, out := c.group(cur, bid, "", true)
			nodes = append(nodes, ns...)
			cur = out
		default:
			n, out := c.work(cur, bid, "", nil, true, "cwork")
			nodes = append(nodes, n)
			cur = out
		}
	}
	return nodes, cur
}

// Generate builds the program for one seed. It never returns an error
// for a correctly functioning generator — an error here is a harness
// bug, not a runtime bug.
func Generate(seed uint64) (*Gen, error) {
	g := &Gen{SinkName: "snk"}
	r := newRnd(seed)
	b := graph.NewBuilder(fmt.Sprintf("conf-%d", seed))
	c := &genCtx{g: g, r: r, b: b}

	eos := r.oneIn(3)
	frames := func() int {
		if eos {
			return 4 + r.intn(6)
		}
		return 0
	}

	var body []*graph.Node
	var cur string
	if r.oneIn(4) {
		// Multi-source: two independent branches joined into one spine.
		// Both sources are dep-free entry tasks, so each iteration's
		// first dispatches race — the shape that exercises lock-free
		// buffer publication.
		g.MultiSource = true
		fa, fb := frames(), frames()
		srcA, sA := c.source(0, fa)
		chainA, sA := c.spine(sA, 0, 1+r.intn(2), false)
		srcB, sB := c.source(1, fb)
		chainB, sB := c.spine(sB, 1, 1+r.intn(2), false)
		stamp := r.next()
		sJ := c.stream()
		join := b.Component(c.name("j"), "cjoin",
			graph.Ports{"a": sA, "b": sB, "out": sJ}, graph.Params{"stamp": fmt.Sprint(stamp)})
		g.ops = append(g.ops, evalOp{f: func(st *evalState) {
			st.vals[0].h = mix(st.vals[0].h, st.vals[1].h, stamp, st.iter)
		}})
		main, mcur := c.spine(sJ, 0, 1+r.intn(3), true)
		body = append(body,
			b.Parallel(graph.ShapeTask, 0,
				b.Seq(append([]*graph.Node{srcA}, chainA...)...),
				b.Seq(append([]*graph.Node{srcB}, chainB...)...)),
			join)
		body = append(body, main...)
		cur = mcur
		if eos {
			g.Frames = fa
			if fb < fa {
				g.Frames = fb
			}
		}
	} else {
		f := frames()
		src, s := c.source(0, f)
		nodes, out := c.spine(s, 0, 2+r.intn(3), true)
		body = append(append(body, src), nodes...)
		cur = out
		g.Frames = f
	}
	body = append(body, b.Component(g.SinkName, "csink", graph.Ports{"in": cur}, nil))
	b.Body(body...)

	g.NCells = c.cells
	for _, src := range g.srcs {
		src.Params["cells"] = fmt.Sprint(c.cells)
	}
	prog, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("conformance: seed %d: %w", seed, err)
	}
	if err := prog.Validate(Registry()); err != nil {
		return nil, fmt.Errorf("conformance: seed %d: %w", seed, err)
	}
	g.Prog = prog

	if eos {
		g.Iters = 0
	} else {
		g.Iters = 6 + r.intn(8)
	}
	g.Depth = 2 + r.intn(5)
	g.StreamCap = 1 + r.intn(g.Depth)
	return g, nil
}
