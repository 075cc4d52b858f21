package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"xspcl"
)

// span is one Component.Run call, in fixture-clock nanoseconds.
type span struct{ start, end int64 }

// slab holds the spans of one component instance, one slot per
// iteration. The engine serialises an instance across iterations, so a
// slot has one writer and needs no lock.
type slab struct {
	class, instance string
	spans           []span
}

// tracer decorates every class of a registry so that each Component.Run
// records a span into memory allocated before the run. It is used only
// by the traced episodes of a -trace 1 run; end-to-end metrics come from
// undecorated registries.
type tracer struct {
	fx *fixture
	n  int

	mu    sync.Mutex // slabs and order: options create instances mid-run
	slabs map[string]*slab
	order []*slab
}

func newTracer(fx *fixture, n int) *tracer {
	return &tracer{fx: fx, n: n, slabs: map[string]*slab{}}
}

// slabFor returns the instance's slab, creating it on first sight. Every
// build of an episode re-creates the same instances, so after the
// warm-up episode this allocates nothing, including for the option
// instances a reconfiguration creates inside Run.
func (t *tracer) slabFor(class, instance string) *slab {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slabs[instance]
	if s == nil {
		s = &slab{class: class, instance: instance, spans: make([]span, t.n)}
		t.slabs[instance] = s
		t.order = append(t.order, s)
	}
	return s
}

func (t *tracer) reset() {
	for _, s := range t.order {
		clear(s.spans)
	}
}

// busy sums span durations per class, in nanoseconds.
func (t *tracer) busy() map[string]int64 {
	sums := map[string]int64{}
	for _, s := range t.order {
		for _, sp := range s.spans {
			sums[s.class] += sp.end - sp.start
		}
	}
	return sums
}

// wrap is the decorator handed to fixture.registry.
func (t *tracer) wrap(class string, c xspcl.Component) xspcl.Component {
	tc := traced{t: t, class: class, inner: c}
	if r, ok := c.(xspcl.Reconfigurable); ok {
		return &tracedReconfigurable{traced: tc, Reconfigurable: r}
	}
	return &tc
}

type traced struct {
	t     *tracer
	class string
	inner xspcl.Component
	slab  *slab
}

func (c *traced) Init(ic *xspcl.InitContext) error {
	c.slab = c.t.slabFor(c.class, ic.Name())
	return c.inner.Init(ic)
}

func (c *traced) Run(rc *xspcl.RunContext) error {
	start := c.t.fx.now()
	err := c.inner.Run(rc)
	if i := rc.Iteration(); i < len(c.slab.spans) {
		c.slab.spans[i] = span{start, c.t.fx.now()}
	}
	return err
}

// tracedReconfigurable keeps the reconfiguration interface of the
// component it decorates visible to the engine.
type tracedReconfigurable struct {
	traced
	xspcl.Reconfigurable
}

// traceFileIterations bounds the span file: the scheduler workload runs
// 1.4 million component calls per episode.
const traceFileIterations = 256

// writeFile writes the spans of the first traceFileIterations
// iterations of the last traced episode: one parent span per iteration
// (launch to retire) and one child per Component.Run.
func (t *tracer) writeFile(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	iters := min(t.n, traceFileIterations)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"spans\":[\n", workload)
	sep := ""
	for i := 0; i < iters; i++ {
		if t.fx.retire[i] == 0 {
			continue
		}
		fmt.Fprintf(w, "%s{\"id\":%d,\"name\":\"iteration\",\"iter\":%d,\"start\":%d,\"end\":%d}", sep, i, i, t.fx.launch[i], t.fx.retire[i])
		sep = ",\n"
	}
	for _, s := range t.order {
		for i, sp := range s.spans[:iters] {
			if sp.end == 0 {
				continue
			}
			fmt.Fprintf(w, "%s{\"parent\":%d,\"name\":%q,\"class\":%q,\"iter\":%d,\"start\":%d,\"end\":%d}", sep, i, s.instance, s.class, i, sp.start, sp.end)
			sep = ",\n"
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
