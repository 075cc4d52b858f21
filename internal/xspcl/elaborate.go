package xspcl

import (
	"fmt"
	"strconv"
	"strings"

	"xspcl/internal/graph"
)

// ReconfigParam mirrors graph.ReconfigParam: the reserved
// initialization-parameter key carrying a component's initial
// reconfiguration request from the <reconfig> tag.
const ReconfigParam = graph.ReconfigParam

// Elaborate expands the document's "main" procedure into an executable
// graph.Program: procedures are inlined at their call sites (instance
// names are qualified by the call name), formal parameters are
// substituted into stream references, initialization values and
// replication counts, and recursion is rejected (the language does not
// support it — there is no way to end the recursion, §3.2).
func Elaborate(doc *Doc) (*graph.Program, error) {
	main, ok := doc.Procedure("main")
	if !ok {
		return nil, fmt.Errorf("xspcl: no procedure named \"main\"")
	}
	prog := &graph.Program{Name: doc.Name}
	seen := map[string]bool{}
	for _, s := range doc.Streams {
		if seen[s.Name] {
			return nil, fmt.Errorf("xspcl: duplicate stream %q", s.Name)
		}
		seen[s.Name] = true
		prog.Streams = append(prog.Streams, graph.StreamDecl{
			Name: s.Name, Type: s.Type, W: s.W, H: s.H, Cap: s.Cap,
			Format: s.Format,
		})
	}
	prog.Queues = append(prog.Queues, doc.Queues...)

	el := &elaborator{doc: doc}
	root, err := el.body(&main.Body, "", nil, []string{"main"})
	if err != nil {
		return nil, err
	}
	prog.Root = root
	return prog, nil
}

// elaborator carries document context during expansion.
type elaborator struct {
	doc   *Doc
	calls int // generated names for anonymous calls
}

// env maps formal parameter names to actual values.
type env map[string]string

// subst resolves "$name" references against the environment. Values
// not starting with '$' pass through; "$$" escapes a literal dollar.
func subst(v string, e env, where string) (string, error) {
	if strings.HasPrefix(v, "$$") {
		return v[1:], nil
	}
	if !strings.HasPrefix(v, "$") {
		return v, nil
	}
	name := v[1:]
	if val, ok := e[name]; ok {
		return val, nil
	}
	return "", fmt.Errorf("xspcl: %s: undefined parameter $%s", where, name)
}

// body elaborates a Body into a Seq node.
func (el *elaborator) body(b *Body, prefix string, e env, stack []string) (*graph.Node, error) {
	seq := &graph.Node{Kind: graph.KindSeq}
	for _, item := range b.Items {
		n, err := el.item(item, prefix, e, stack)
		if err != nil {
			return nil, err
		}
		if n.Kind == graph.KindSeq {
			// A <call> elaborates to the called procedure's body, a Seq.
			// Inline it: a Seq directly inside a Seq adds no structure,
			// and flattening makes elaboration canonical — EmitXML inlines
			// Seq children, so emit→parse is a fixed point from the first
			// parse on.
			seq.Children = append(seq.Children, n.Children...)
			continue
		}
		seq.Children = append(seq.Children, n)
	}
	return seq, nil
}

func (el *elaborator) item(item Item, prefix string, e env, stack []string) (*graph.Node, error) {
	switch it := item.(type) {
	case *Component:
		return el.component(it, prefix, e)
	case *Call:
		return el.call(it, prefix, e, stack)
	case *Parallel:
		return el.parallel(it, prefix, e, stack)
	case *Manager:
		return el.manager(it, prefix, e, stack)
	case *Option:
		return el.option(it, prefix, e, stack)
	}
	return nil, fmt.Errorf("xspcl: unknown item type %T", item)
}

func (el *elaborator) component(c *Component, prefix string, e env) (*graph.Node, error) {
	if c.Name == "" {
		return nil, fmt.Errorf("xspcl: component of class %q has no name", c.Class)
	}
	where := "component " + prefix + c.Name
	n := &graph.Node{
		Kind:   graph.KindComponent,
		Name:   prefix + c.Name,
		Class:  c.Class,
		Ports:  map[string]string{},
		Params: map[string]string{},
	}
	for _, sr := range c.Streams {
		stream, err := subst(sr.Name, e, where)
		if err != nil {
			return nil, err
		}
		if _, dup := n.Ports[sr.Port]; dup {
			return nil, fmt.Errorf("xspcl: %s: port %q connected twice", where, sr.Port)
		}
		n.Ports[sr.Port] = stream
	}
	for _, ip := range c.Inits {
		val, err := subst(ip.Value, e, where)
		if err != nil {
			return nil, err
		}
		if _, dup := n.Params[ip.Name]; dup {
			return nil, fmt.Errorf("xspcl: %s: init parameter %q given twice", where, ip.Name)
		}
		n.Params[ip.Name] = val
	}
	if c.Reconfig != "" {
		req, err := subst(c.Reconfig, e, where)
		if err != nil {
			return nil, err
		}
		n.Params[ReconfigParam] = req
	}
	if c.OnError != "" {
		v, err := subst(c.OnError, e, where)
		if err != nil {
			return nil, err
		}
		n.Params[graph.OnErrorParam] = v
	}
	if c.Deadline != "" {
		v, err := subst(c.Deadline, e, where)
		if err != nil {
			return nil, err
		}
		n.Params[graph.DeadlineParam] = v
	}
	if c.Replicate != "" {
		v, err := subst(c.Replicate, e, where)
		if err != nil {
			return nil, err
		}
		n.Params[graph.ReplicateParam] = v
	}
	if c.Interface != "" {
		v, err := subst(c.Interface, e, where)
		if err != nil {
			return nil, err
		}
		n.Params[graph.InterfaceParam] = v
	}
	return n, nil
}

func (el *elaborator) call(c *Call, prefix string, e env, stack []string) (*graph.Node, error) {
	proc, ok := el.doc.Procedure(c.Procedure)
	if !ok {
		return nil, fmt.Errorf("xspcl: call to unknown procedure %q", c.Procedure)
	}
	for _, on := range stack {
		if on == c.Procedure {
			return nil, fmt.Errorf("xspcl: recursive call to procedure %q (%s)", c.Procedure, strings.Join(append(stack, c.Procedure), " -> "))
		}
	}
	// Bind actuals to formals.
	callEnv := env{}
	args := map[string]string{}
	for _, a := range c.Args {
		v, err := subst(a.Value, e, "call "+c.Procedure)
		if err != nil {
			return nil, err
		}
		if _, dup := args[a.Name]; dup {
			return nil, fmt.Errorf("xspcl: call %s: argument %q given twice", c.Procedure, a.Name)
		}
		args[a.Name] = v
	}
	for _, p := range proc.Params {
		if v, ok := args[p.Name]; ok {
			callEnv[p.Name] = v
			delete(args, p.Name)
			continue
		}
		if p.HasDefault {
			callEnv[p.Name] = p.Default
			continue
		}
		return nil, fmt.Errorf("xspcl: call %s: missing argument %q", c.Procedure, p.Name)
	}
	for name := range args {
		return nil, fmt.Errorf("xspcl: call %s: unknown argument %q", c.Procedure, name)
	}
	callName := c.Name
	if callName == "" {
		el.calls++
		callName = fmt.Sprintf("%s%d", c.Procedure, el.calls)
	}
	return el.body(&proc.Body, prefix+callName+".", callEnv, append(stack, c.Procedure))
}

func (el *elaborator) parallel(p *Parallel, prefix string, e env, stack []string) (*graph.Node, error) {
	shape, err := graph.ParseShape(p.Shape)
	if err != nil {
		return nil, err
	}
	n := &graph.Node{Kind: graph.KindPar, Shape: shape, N: 1}
	if p.N != "" {
		nv, err := subst(p.N, e, "parallel group")
		if err != nil {
			return nil, err
		}
		n.N, err = strconv.Atoi(nv)
		if err != nil {
			return nil, fmt.Errorf("xspcl: parallel n=%q is not an integer", nv)
		}
	} else if shape != graph.ShapeTask {
		return nil, fmt.Errorf("xspcl: %s group needs an n attribute", shape)
	}
	if len(p.Parblocks) == 0 {
		return nil, fmt.Errorf("xspcl: parallel group has no parblocks")
	}
	for _, blk := range p.Parblocks {
		c, err := el.body(&blk, prefix, e, stack)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

func (el *elaborator) manager(m *Manager, prefix string, e env, stack []string) (*graph.Node, error) {
	if m.Name == "" {
		return nil, fmt.Errorf("xspcl: manager without a name")
	}
	queue, err := subst(m.Queue, e, "manager "+m.Name)
	if err != nil {
		return nil, err
	}
	n := &graph.Node{Kind: graph.KindManager, Name: prefix + m.Name, Queue: queue}
	for _, on := range m.Bindings {
		kind, err := graph.ParseAction(on.Action)
		if err != nil {
			return nil, fmt.Errorf("xspcl: manager %s: %w", m.Name, err)
		}
		act := graph.EventAction{Kind: kind}
		switch kind {
		case graph.ActionEnable, graph.ActionDisable, graph.ActionToggle:
			if on.Option == "" {
				return nil, fmt.Errorf("xspcl: manager %s: action %s needs an option attribute", m.Name, on.Action)
			}
			act.Option = prefix + on.Option
		case graph.ActionForward:
			if act.Queue, err = subst(on.Queue, e, "manager "+m.Name); err != nil {
				return nil, err
			}
		case graph.ActionReconfig:
			if act.Request, err = subst(on.Request, e, "manager "+m.Name); err != nil {
				return nil, err
			}
		}
		n.Bindings = append(n.Bindings, graph.EventBinding{
			Event:   on.Event,
			Actions: []graph.EventAction{act},
		})
	}
	body, err := el.body(&m.Body, prefix, e, stack)
	if err != nil {
		return nil, err
	}
	n.Children = body.Children
	return n, nil
}

func (el *elaborator) option(o *Option, prefix string, e env, stack []string) (*graph.Node, error) {
	if o.Name == "" {
		return nil, fmt.Errorf("xspcl: option without a name")
	}
	var on bool
	switch o.Default {
	case "on", "true", "1":
		on = true
	case "off", "false", "0", "":
		on = false
	default:
		return nil, fmt.Errorf("xspcl: option %s: bad default %q", o.Name, o.Default)
	}
	n := &graph.Node{Kind: graph.KindOption, Name: prefix + o.Name, DefaultOn: on}
	body, err := el.body(&o.Body, prefix, e, stack)
	if err != nil {
		return nil, err
	}
	n.Children = body.Children
	return n, nil
}

// Load parses and elaborates a specification in one step, then checks
// the catalog-independent graph invariants (stream references, option
// placement, policy attribute syntax) so a malformed document fails
// here rather than at engine construction. Class/port checks still
// need a component catalog and run in Program.Validate at NewApp.
func Load(src string) (*graph.Program, error) {
	doc, err := ParseString(src)
	if err != nil {
		return nil, err
	}
	prog, err := Elaborate(doc)
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(nil); err != nil {
		return nil, err
	}
	return prog, nil
}
