package xspcl

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"xspcl/internal/graph"
)

// EmitXML renders an elaborated program back into XSPCL XML (a single
// flat "main" procedure — elaboration has already inlined procedure
// calls). This is the output side a graphical front-end needs (paper
// Figure 1: the front-end expresses the application and writes XSPCL),
// and it makes the language round-trippable:
//
//	Load(EmitXML(p)) elaborates to a program whose plan equals p's.
func EmitXML(prog *graph.Program) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "<xspcl name=%q>\n", prog.Name)
	if len(prog.Streams) > 0 {
		b.WriteString("  <streams>\n")
		for _, s := range prog.Streams {
			fmt.Fprintf(&b, "    <stream name=%q", s.Name)
			if s.Type != "" {
				fmt.Fprintf(&b, " type=%q", s.Type)
			}
			if s.W != 0 {
				fmt.Fprintf(&b, " width=\"%d\"", s.W)
			}
			if s.H != 0 {
				fmt.Fprintf(&b, " height=\"%d\"", s.H)
			}
			if s.Cap != 0 {
				fmt.Fprintf(&b, " cap=\"%d\"", s.Cap)
			}
			if s.Format != "" {
				fmt.Fprintf(&b, " format=%q", xmlEscape(s.Format))
			}
			b.WriteString("/>\n")
		}
		b.WriteString("  </streams>\n")
	}
	if len(prog.Queues) > 0 {
		b.WriteString("  <queues>\n")
		for _, q := range prog.Queues {
			fmt.Fprintf(&b, "    <queue name=%q/>\n", q)
		}
		b.WriteString("  </queues>\n")
	}
	b.WriteString("  <procedure name=\"main\">\n    <body>\n")
	if prog.Root != nil {
		for _, c := range prog.Root.Children {
			if err := emitXMLNode(&b, c, 3); err != nil {
				return "", err
			}
		}
	}
	b.WriteString("    </body>\n  </procedure>\n</xspcl>\n")
	return b.String(), nil
}

func emitXMLNode(b *strings.Builder, n *graph.Node, depth int) error {
	ind := strings.Repeat("  ", depth)
	switch n.Kind {
	case graph.KindComponent:
		fmt.Fprintf(b, "%s<component name=%q class=%q", ind, n.Name, n.Class)
		if v, ok := n.Params[graph.OnErrorParam]; ok {
			fmt.Fprintf(b, " on_error=%q", xmlEscape(v))
		}
		if v, ok := n.Params[graph.DeadlineParam]; ok {
			fmt.Fprintf(b, " deadline=%q", xmlEscape(v))
		}
		if v, ok := n.Params[graph.ReplicateParam]; ok {
			fmt.Fprintf(b, " replicate=%q", xmlEscape(v))
		}
		if v, ok := n.Params[graph.InterfaceParam]; ok {
			fmt.Fprintf(b, " interface=%q", xmlEscape(v))
		}
		b.WriteString(">\n")
		for _, port := range sortedKeysOf(n.Ports) {
			fmt.Fprintf(b, "%s  <stream port=%q name=%q/>\n", ind, port, n.Ports[port])
		}
		for _, p := range sortedKeysOf(n.Params) {
			if p == graph.ReconfigParam || p == graph.OnErrorParam || p == graph.DeadlineParam || p == graph.ReplicateParam || p == graph.InterfaceParam {
				continue
			}
			fmt.Fprintf(b, "%s  <init name=%q value=%q/>\n", ind, p, xmlEscape(n.Params[p]))
		}
		if req, ok := n.Params[graph.ReconfigParam]; ok {
			fmt.Fprintf(b, "%s  <reconfig request=%q/>\n", ind, xmlEscape(req))
		}
		fmt.Fprintf(b, "%s</component>\n", ind)

	case graph.KindSeq:
		// Sequential composition is implicit in a body.
		for _, c := range n.Children {
			if err := emitXMLNode(b, c, depth); err != nil {
				return err
			}
		}

	case graph.KindPar:
		if n.Shape == graph.ShapeTask {
			fmt.Fprintf(b, "%s<parallel shape=\"task\">\n", ind)
		} else {
			fmt.Fprintf(b, "%s<parallel shape=%q n=\"%d\">\n", ind, n.Shape.String(), n.N)
		}
		for _, c := range n.Children {
			fmt.Fprintf(b, "%s  <parblock>\n", ind)
			if err := emitXMLNode(b, c, depth+2); err != nil {
				return err
			}
			fmt.Fprintf(b, "%s  </parblock>\n", ind)
		}
		fmt.Fprintf(b, "%s</parallel>\n", ind)

	case graph.KindOption:
		state := "off"
		if n.DefaultOn {
			state = "on"
		}
		fmt.Fprintf(b, "%s<option name=%q default=%q>\n%s  <body>\n", ind, n.Name, state, ind)
		for _, c := range n.Children {
			if err := emitXMLNode(b, c, depth+2); err != nil {
				return err
			}
		}
		fmt.Fprintf(b, "%s  </body>\n%s</option>\n", ind, ind)

	case graph.KindManager:
		fmt.Fprintf(b, "%s<manager name=%q queue=%q>\n", ind, n.Name, n.Queue)
		for _, bind := range n.Bindings {
			for _, a := range bind.Actions {
				fmt.Fprintf(b, "%s  <on event=%q action=%q", ind, bind.Event, a.Kind.String())
				switch a.Kind {
				case graph.ActionEnable, graph.ActionDisable, graph.ActionToggle:
					fmt.Fprintf(b, " option=%q", a.Option)
				case graph.ActionForward:
					fmt.Fprintf(b, " queue=%q", a.Queue)
				case graph.ActionReconfig:
					fmt.Fprintf(b, " request=%q", xmlEscape(a.Request))
				}
				b.WriteString("/>\n")
			}
		}
		fmt.Fprintf(b, "%s  <body>\n", ind)
		for _, c := range n.Children {
			if err := emitXMLNode(b, c, depth+2); err != nil {
				return err
			}
		}
		fmt.Fprintf(b, "%s  </body>\n%s</manager>\n", ind, ind)

	default:
		return fmt.Errorf("xspcl: cannot emit node kind %v", n.Kind)
	}
	return nil
}

func sortedKeysOf(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// xmlEscape escapes a string for use inside a quoted attribute.
func xmlEscape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}
