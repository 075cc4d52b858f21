// Package xspcl implements the coordination language of the paper: an
// XML dialect (derived from SPC-XML) describing a streaming application
// as a Series-Parallel graph of components with streams, events,
// procedures, three parallelism shapes and reconfigurable options. The
// package parses specifications, elaborates them (procedure expansion,
// parameter substitution) into graph.Programs, and generates Go glue
// code (the paper's prototype tool emits C glue; this reproduction's
// target language is Go).
//
// A specification looks like:
//
//	<xspcl name="example">
//	  <streams>
//	    <stream name="big" type="frame" width="720" height="576"/>
//	    <stream name="small" type="frame" width="180" height="144"/>
//	  </streams>
//	  <procedure name="main">
//	    <body>
//	      <component name="scaler" class="downscale">
//	        <stream port="in" name="big"/>
//	        <stream port="out" name="small"/>
//	        <init name="factor" value="4"/>
//	      </component>
//	    </body>
//	  </procedure>
//	</xspcl>
//
// matching the component syntax of the paper's Figure 2; <call> /
// <procedure> follow Figure 3, <parallel shape="..."> Figure 4, and
// <manager> / <option> / <on> Figure 6.
package xspcl

import (
	"encoding/xml"
	"fmt"
	"io"
)

// Doc is the parsed root of an XSPCL document.
type Doc struct {
	Name       string
	Streams    []StreamDecl
	Queues     []string
	Procedures []Procedure
}

// StreamDecl is a <stream> declaration.
type StreamDecl struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
	W    int    `xml:"width,attr"`
	H    int    `xml:"height,attr"`
	Cap  int    `xml:"cap,attr"`
	// Format is an optional ground format term (internal/format
	// grammar) declaring what flows on the stream.
	Format string `xml:"format,attr"`
}

// Procedure is a <procedure>: a named, parameterised subgraph.
type Procedure struct {
	Name   string
	Params []Param
	Body   Body
}

// Param is a formal <param> of a procedure, optionally with a default.
type Param struct {
	Name       string `xml:"name,attr"`
	Default    string `xml:"default,attr"`
	HasDefault bool   `xml:"-"`
}

// Body is an ordered list of graph items; consecutive items are
// scheduled sequentially.
type Body struct {
	Items []Item
}

// Item is one child of a <body> or <parblock>: *Component, *Call,
// *Parallel, *Manager or *Option.
type Item interface{ itemNode() }

// Component is a <component> leaf.
type Component struct {
	Name      string
	Class     string
	Streams   []StreamRef
	Inits     []InitParam
	Reconfig  string // optional initial reconfiguration request (paper §3.1)
	OnError   string // failure policy attribute (fail | skip-iteration | retry:N[,backoff=Kx])
	Deadline  string // per-job budget attribute (Go duration)
	Replicate string // replica width attribute (positive integer | auto)
	Interface string // interface signature override (internal/format grammar)
}

// StreamRef connects a component port to a stream.
type StreamRef struct {
	Port string `xml:"port,attr"`
	Name string `xml:"name,attr"`
}

// InitParam is an <init> initialization parameter.
type InitParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Call instantiates a procedure (<call procedure="..." name="...">).
type Call struct {
	Name      string
	Procedure string
	Args      []Arg
}

// Arg is an actual parameter of a call.
type Arg struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Parallel is a <parallel> group with one of the three shapes.
type Parallel struct {
	Shape     string
	N         string // replication count; may be a $parameter
	Parblocks []Body
}

// Manager is a reconfiguration container.
type Manager struct {
	Name     string
	Queue    string
	Bindings []On
	Body     Body
}

// On binds an event to an action inside a manager.
type On struct {
	Event   string `xml:"event,attr"`
	Action  string `xml:"action,attr"`
	Option  string `xml:"option,attr"`
	Queue   string `xml:"queue,attr"`
	Request string `xml:"request,attr"`
}

// Option is an optional subgraph inside a manager.
type Option struct {
	Name    string
	Default string // "on" or "off" (default off)
	Body    Body
}

func (*Component) itemNode() {}
func (*Call) itemNode()      {}
func (*Parallel) itemNode()  {}
func (*Manager) itemNode()   {}
func (*Option) itemNode()    {}

// UnmarshalXML decodes a <body> or <parblock>, preserving the order of
// its heterogeneous children.
func (b *Body) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return fmt.Errorf("xspcl: unterminated <%s>", start.Name.Local)
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			item, err := decodeItem(d, t)
			if err != nil {
				return err
			}
			b.Items = append(b.Items, item)
		case xml.EndElement:
			return nil
		}
	}
}

// decodeItem decodes one graph item starting at start.
func decodeItem(d *xml.Decoder, start xml.StartElement) (Item, error) {
	switch start.Name.Local {
	case "component":
		return decodeComponent(d, start)
	case "call":
		c := &Call{Name: attr(start, "name"), Procedure: attr(start, "procedure")}
		if err := decodeChildren(d, start, func(dd *xml.Decoder, s xml.StartElement) error {
			if s.Name.Local != "arg" {
				return fmt.Errorf("xspcl: unexpected <%s> in <call>", s.Name.Local)
			}
			var a Arg
			if err := dd.DecodeElement(&a, &s); err != nil {
				return err
			}
			c.Args = append(c.Args, a)
			return nil
		}); err != nil {
			return nil, err
		}
		return c, nil
	case "parallel":
		p := &Parallel{Shape: attr(start, "shape"), N: attr(start, "n")}
		if err := decodeChildren(d, start, func(dd *xml.Decoder, s xml.StartElement) error {
			if s.Name.Local != "parblock" {
				return fmt.Errorf("xspcl: unexpected <%s> in <parallel>", s.Name.Local)
			}
			var b Body
			if err := b.UnmarshalXML(dd, s); err != nil {
				return err
			}
			p.Parblocks = append(p.Parblocks, b)
			return nil
		}); err != nil {
			return nil, err
		}
		return p, nil
	case "manager":
		m := &Manager{Name: attr(start, "name"), Queue: attr(start, "queue")}
		if err := decodeChildren(d, start, func(dd *xml.Decoder, s xml.StartElement) error {
			switch s.Name.Local {
			case "on":
				var on On
				if err := dd.DecodeElement(&on, &s); err != nil {
					return err
				}
				m.Bindings = append(m.Bindings, on)
				return nil
			case "body":
				return m.Body.UnmarshalXML(dd, s)
			}
			return fmt.Errorf("xspcl: unexpected <%s> in <manager>", s.Name.Local)
		}); err != nil {
			return nil, err
		}
		return m, nil
	case "option":
		o := &Option{Name: attr(start, "name"), Default: attr(start, "default")}
		if err := decodeChildren(d, start, func(dd *xml.Decoder, s xml.StartElement) error {
			if s.Name.Local != "body" {
				return fmt.Errorf("xspcl: unexpected <%s> in <option>", s.Name.Local)
			}
			return o.Body.UnmarshalXML(dd, s)
		}); err != nil {
			return nil, err
		}
		return o, nil
	}
	return nil, fmt.Errorf("xspcl: unexpected element <%s>", start.Name.Local)
}

func decodeComponent(d *xml.Decoder, start xml.StartElement) (*Component, error) {
	c := &Component{
		Name: attr(start, "name"), Class: attr(start, "class"),
		OnError: attr(start, "on_error"), Deadline: attr(start, "deadline"),
		Replicate: attr(start, "replicate"), Interface: attr(start, "interface"),
	}
	err := decodeChildren(d, start, func(dd *xml.Decoder, s xml.StartElement) error {
		switch s.Name.Local {
		case "stream":
			var sr StreamRef
			if err := dd.DecodeElement(&sr, &s); err != nil {
				return err
			}
			c.Streams = append(c.Streams, sr)
			return nil
		case "init":
			var ip InitParam
			if err := dd.DecodeElement(&ip, &s); err != nil {
				return err
			}
			c.Inits = append(c.Inits, ip)
			return nil
		case "reconfig":
			c.Reconfig = attr(s, "request")
			return dd.Skip()
		}
		return fmt.Errorf("xspcl: unexpected <%s> in <component>", s.Name.Local)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// decodeChildren iterates the child elements of start, calling each
// through the child callback, until the matching end element.
func decodeChildren(d *xml.Decoder, start xml.StartElement, child func(*xml.Decoder, xml.StartElement) error) error {
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return fmt.Errorf("xspcl: unterminated <%s>", start.Name.Local)
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := child(d, t); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		}
	}
}

func attr(e xml.StartElement, name string) string {
	for _, a := range e.Attr {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}
