package xspcl

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xspcl/internal/graph"
)

// figure2 reconstructs the paper's Figure 2 example: a spatial down
// scaler component.
const figure2 = `
<xspcl name="fig2">
  <streams>
    <stream name="big" type="frame" width="720" height="576"/>
    <stream name="small" type="frame" width="240" height="192"/>
  </streams>
  <procedure name="main">
    <body>
      <component name="src" class="videosrc">
        <stream port="out" name="big"/>
        <init name="width" value="720"/>
        <init name="height" value="576"/>
        <init name="frames" value="8"/>
      </component>
      <component name="scaler" class="downscale">
        <stream port="in" name="big"/>
        <stream port="out" name="small"/>
        <init name="factor" value="3"/>
      </component>
      <component name="snk" class="videosink">
        <stream port="in" name="small"/>
      </component>
    </body>
  </procedure>
</xspcl>`

// figure3 reconstructs Figure 3: a procedure and a call to it.
const figure3 = `
<xspcl name="fig3">
  <streams>
    <stream name="a" type="frame" width="64" height="32"/>
    <stream name="b" type="frame" width="32" height="16"/>
  </streams>
  <procedure name="scale">
    <param name="input"/>
    <param name="output"/>
    <param name="factor" default="2"/>
    <body>
      <component name="x" class="downscale">
        <stream port="in" name="$input"/>
        <stream port="out" name="$output"/>
        <init name="factor" value="$factor"/>
      </component>
    </body>
  </procedure>
  <procedure name="main">
    <body>
      <component name="src" class="videosrc">
        <stream port="out" name="a"/>
        <init name="width" value="64"/>
        <init name="height" value="32"/>
        <init name="frames" value="4"/>
      </component>
      <call name="c1" procedure="scale">
        <arg name="input" value="a"/>
        <arg name="output" value="b"/>
      </call>
      <component name="snk" class="videosink">
        <stream port="in" name="b"/>
      </component>
    </body>
  </procedure>
</xspcl>`

// figure4 reconstructs Figure 4: nested parallel groups of all shapes.
const figure4 = `
<xspcl name="fig4">
  <streams>
    <stream name="s0"/>
    <stream name="s1"/>
    <stream name="s2"/>
    <stream name="s3"/>
  </streams>
  <procedure name="main">
    <body>
      <component name="src" class="nullsrc">
        <stream port="out" name="s0"/>
      </component>
      <parallel shape="task">
        <parblock>
          <parallel shape="slice" n="4">
            <parblock>
              <component name="f" class="nullfilter">
                <stream port="in" name="s0"/>
                <stream port="out" name="s1"/>
              </component>
            </parblock>
          </parallel>
        </parblock>
        <parblock>
          <parallel shape="crossdep" n="3">
            <parblock>
              <component name="g" class="nullfilter">
                <stream port="in" name="s0"/>
                <stream port="out" name="s2"/>
              </component>
            </parblock>
            <parblock>
              <component name="h" class="nullfilter">
                <stream port="in" name="s2"/>
                <stream port="out" name="s3"/>
              </component>
            </parblock>
          </parallel>
        </parblock>
      </parallel>
    </body>
  </procedure>
</xspcl>`

// figure6 reconstructs Figure 6: a manager with an option and event
// bindings.
const figure6 = `
<xspcl name="fig6">
  <streams>
    <stream name="a"/>
    <stream name="b"/>
  </streams>
  <queues>
    <queue name="ui"/>
    <queue name="ctl"/>
  </queues>
  <procedure name="main">
    <body>
      <component name="src" class="nullsrc">
        <stream port="out" name="a"/>
      </component>
      <manager name="mgr" queue="ui">
        <on event="toggle2" action="toggle" option="pip2"/>
        <on event="quit" action="forward" queue="ctl"/>
        <on event="move" action="reconfig" request="pos=16,16"/>
        <body>
          <component name="base" class="nullfilter">
            <stream port="in" name="a"/>
            <stream port="out" name="b"/>
          </component>
          <option name="pip2" default="off">
            <body>
              <component name="extra" class="nullfilter">
                <stream port="in" name="b"/>
                <stream port="out" name="b"/>
              </component>
            </body>
          </option>
        </body>
      </manager>
    </body>
  </procedure>
</xspcl>`

func mustLoad(t *testing.T, src string) *graph.Program {
	t.Helper()
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFigure2(t *testing.T) {
	doc, err := ParseString(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "fig2" || len(doc.Streams) != 2 || len(doc.Procedures) != 1 {
		t.Fatalf("doc: %+v", doc)
	}
	if doc.Streams[0].Type != "frame" || doc.Streams[0].W != 720 {
		t.Fatalf("stream decl: %+v", doc.Streams[0])
	}
	main, ok := doc.Procedure("main")
	if !ok || len(main.Body.Items) != 3 {
		t.Fatalf("main body has %d items", len(main.Body.Items))
	}
	comp, ok := main.Body.Items[1].(*Component)
	if !ok || comp.Class != "downscale" || len(comp.Inits) != 1 || comp.Inits[0].Value != "3" {
		t.Fatalf("scaler component: %+v", comp)
	}
}

func TestElaborateFigure2(t *testing.T) {
	p := mustLoad(t, figure2)
	comps := p.Components()
	if len(comps) != 3 {
		t.Fatalf("%d components", len(comps))
	}
	scaler := comps[1]
	if scaler.Name != "scaler" || scaler.Params["factor"] != "3" ||
		scaler.Ports["in"] != "big" || scaler.Ports["out"] != "small" {
		t.Fatalf("scaler: %+v", scaler)
	}
	plan, err := graph.BuildPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 3 {
		t.Fatalf("%d tasks", len(plan.Tasks))
	}
}

func TestProcedureCallSubstitution(t *testing.T) {
	p := mustLoad(t, figure3)
	var scaled *graph.Node
	for _, c := range p.Components() {
		if strings.HasSuffix(c.Name, ".x") {
			scaled = c
		}
	}
	if scaled == nil {
		t.Fatal("call-expanded component not found")
	}
	if scaled.Name != "c1.x" {
		t.Fatalf("qualified name %q", scaled.Name)
	}
	if scaled.Ports["in"] != "a" || scaled.Ports["out"] != "b" {
		t.Fatalf("substituted ports: %v", scaled.Ports)
	}
	if scaled.Params["factor"] != "2" {
		t.Fatalf("default parameter not applied: %v", scaled.Params)
	}
}

func TestCallErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown procedure", `<xspcl name="x"><procedure name="main"><body>
			<call procedure="nosuch"/></body></procedure></xspcl>`, "unknown procedure"},
		{"missing arg", `<xspcl name="x">
			<procedure name="p"><param name="q"/><body></body></procedure>
			<procedure name="main"><body><call procedure="p"/></body></procedure></xspcl>`, "missing argument"},
		{"unknown arg", `<xspcl name="x">
			<procedure name="p"><body></body></procedure>
			<procedure name="main"><body><call procedure="p"><arg name="z" value="1"/></call></body></procedure></xspcl>`, "unknown argument"},
		{"recursion", `<xspcl name="x">
			<procedure name="p"><body><call procedure="p"/></body></procedure>
			<procedure name="main"><body><call procedure="p"/></body></procedure></xspcl>`, "recursive"},
		{"mutual recursion", `<xspcl name="x">
			<procedure name="p"><body><call procedure="q"/></body></procedure>
			<procedure name="q"><body><call procedure="p"/></body></procedure>
			<procedure name="main"><body><call procedure="p"/></body></procedure></xspcl>`, "recursive"},
		{"undefined param", `<xspcl name="x"><streams><stream name="s"/></streams>
			<procedure name="main"><body><component name="c" class="k">
			<stream port="out" name="$nope"/></component></body></procedure></xspcl>`, "undefined parameter"},
		{"no main", `<xspcl name="x"><procedure name="p"><body></body></procedure></xspcl>`, "no procedure named"},
	}
	for _, c := range cases {
		_, err := Load(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestElaborateFigure4Shapes(t *testing.T) {
	p := mustLoad(t, figure4)
	plan, err := graph.BuildPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 src + 4 slice copies + 3+3 crossdep copies = 11 tasks.
	if len(plan.Tasks) != 11 {
		t.Fatalf("%d tasks", len(plan.Tasks))
	}
	if p.IsSP() {
		t.Fatal("crossdep spec reported SP")
	}
	names := map[string]bool{}
	for _, tk := range plan.Tasks {
		names[tk.Name] = true
	}
	for _, want := range []string{"f#0", "f#3", "g#2", "h#0"} {
		if !names[want] {
			t.Fatalf("missing task %q in %v", want, names)
		}
	}
}

func TestElaborateFigure6Manager(t *testing.T) {
	p := mustLoad(t, figure6)
	ms := p.Managers()
	if len(ms) != 1 {
		t.Fatalf("%d managers", len(ms))
	}
	m := ms[0]
	if m.Queue != "ui" || len(m.Bindings) != 3 {
		t.Fatalf("manager: %+v", m)
	}
	if m.Bindings[0].Actions[0].Kind != graph.ActionToggle || m.Bindings[0].Actions[0].Option != "pip2" {
		t.Fatalf("toggle binding: %+v", m.Bindings[0])
	}
	if m.Bindings[1].Actions[0].Queue != "ctl" {
		t.Fatalf("forward binding: %+v", m.Bindings[1])
	}
	if m.Bindings[2].Actions[0].Request != "pos=16,16" {
		t.Fatalf("reconfig binding: %+v", m.Bindings[2])
	}
	opts := p.Options()
	if on, ok := opts["pip2"]; !ok || on {
		t.Fatalf("options: %v", opts)
	}
	if err := p.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigTagBecomesParam(t *testing.T) {
	src := `<xspcl name="x"><streams><stream name="s"/></streams>
	<procedure name="main"><body>
	  <component name="c" class="k">
	    <stream port="out" name="s"/>
	    <reconfig request="pos=4,4"/>
	  </component>
	</body></procedure></xspcl>`
	p := mustLoad(t, src)
	c := p.Components()[0]
	if c.Params[ReconfigParam] != "pos=4,4" {
		t.Fatalf("params: %v", c.Params)
	}
}

func TestParallelNSubstitution(t *testing.T) {
	src := `<xspcl name="x"><streams><stream name="a"/><stream name="b"/></streams>
	<procedure name="p"><param name="slices"/><body>
	  <parallel shape="slice" n="$slices"><parblock>
	    <component name="f" class="k">
	      <stream port="in" name="a"/><stream port="out" name="b"/>
	    </component>
	  </parblock></parallel>
	</body></procedure>
	<procedure name="main"><body>
	  <component name="src" class="k0"><stream port="out" name="a"/></component>
	  <call name="q" procedure="p"><arg name="slices" value="6"/></call>
	</body></procedure></xspcl>`
	p := mustLoad(t, src)
	plan, err := graph.BuildPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tk := range plan.Tasks {
		if strings.HasPrefix(tk.Name, "q.f#") {
			count++
			if tk.NSlices != 6 {
				t.Fatalf("NSlices %d", tk.NSlices)
			}
		}
	}
	if count != 6 {
		t.Fatalf("%d slice copies", count)
	}
}

func TestAnonymousCallsGetDistinctNames(t *testing.T) {
	src := `<xspcl name="x"><streams><stream name="a"/></streams>
	<procedure name="p"><body>
	  <component name="c" class="k"><stream port="out" name="a"/></component>
	</body></procedure>
	<procedure name="main"><body>
	  <call procedure="p"/>
	  <call procedure="p"/>
	</body></procedure></xspcl>`
	p := mustLoad(t, src)
	comps := p.Components()
	if len(comps) != 2 || comps[0].Name == comps[1].Name {
		t.Fatalf("components: %v %v", comps[0].Name, comps[1].Name)
	}
	if _, err := graph.BuildPlan(p, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDollarEscape(t *testing.T) {
	src := `<xspcl name="x"><streams><stream name="s"/></streams>
	<procedure name="main"><body>
	  <component name="c" class="k">
	    <stream port="out" name="s"/>
	    <init name="label" value="$$literal"/>
	  </component>
	</body></procedure></xspcl>`
	p := mustLoad(t, src)
	if got := p.Components()[0].Params["label"]; got != "$literal" {
		t.Fatalf("escape: %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"wrong root", `<nope/>`},
		{"empty", ``},
		{"bad child of xspcl", `<xspcl><bogus/></xspcl>`},
		{"bad child of component", `<xspcl><procedure name="main"><body>
			<component name="c" class="k"><weird/></component></body></procedure></xspcl>`},
		{"bad child of parallel", `<xspcl><procedure name="main"><body>
			<parallel shape="task"><component name="c" class="k"/></parallel></body></procedure></xspcl>`},
		{"malformed xml", `<xspcl><procedure name="main">`},
		{"bad shape", `<xspcl><procedure name="main"><body>
			<parallel shape="weird"><parblock></parblock></parallel></body></procedure></xspcl>`},
		{"slice without n", `<xspcl><procedure name="main"><body>
			<parallel shape="slice"><parblock></parblock></parallel></body></procedure></xspcl>`},
		{"bad n", `<xspcl><procedure name="main"><body>
			<parallel shape="slice" n="many"><parblock></parblock></parallel></body></procedure></xspcl>`},
		{"bad action", `<xspcl><queues><queue name="q"/></queues><procedure name="main"><body>
			<manager name="m" queue="q"><on event="e" action="explode"/><body></body></manager></body></procedure></xspcl>`},
		{"bad option default", `<xspcl><queues><queue name="q"/></queues><procedure name="main"><body>
			<manager name="m" queue="q"><body><option name="o" default="maybe"><body></body></option></body></manager></body></procedure></xspcl>`},
		{"duplicate stream", `<xspcl><streams><stream name="s"/><stream name="s"/></streams>
			<procedure name="main"><body></body></procedure></xspcl>`},
		{"duplicate port", `<xspcl><streams><stream name="s"/></streams><procedure name="main"><body>
			<component name="c" class="k"><stream port="out" name="s"/><stream port="out" name="s"/></component></body></procedure></xspcl>`},
		{"unnamed component", `<xspcl><streams><stream name="s"/></streams><procedure name="main"><body>
			<component class="k"><stream port="out" name="s"/></component></body></procedure></xspcl>`},
	}
	for _, c := range cases {
		if _, err := Load(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEmitGoContainsStructure(t *testing.T) {
	p := mustLoad(t, figure6)
	code, err := EmitGo(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package main",
		`graph.NewBuilder("fig6")`,
		`b.Queue("ui")`,
		`b.Manager("mgr", "ui"`,
		`graph.On("toggle2", graph.ActionToggle, "pip2")`,
		`graph.On("quit", graph.ActionForward, "ctl")`,
		`graph.On("move", graph.ActionReconfig, "pos=16,16")`,
		`b.Option("pip2", false`,
		`b.Component("base", "nullfilter", graph.Ports{"in": "a", "out": "b"}, nil)`,
		"hinch.NewApp",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("emitted code missing %q", want)
		}
	}
}

func TestEmitGoRoundTripSemantics(t *testing.T) {
	// The emitted builder calls must describe the same plan as the
	// elaborated program. We verify on the dump of the slice/crossdep
	// spec, which exercises every structural feature except managers.
	p := mustLoad(t, figure4)
	code, err := EmitGo(p)
	if err != nil {
		t.Fatal(err)
	}
	// The generated code declares the same streams and components.
	for _, want := range []string{`b.Stream("s0")`, `b.Parallel(graph.ShapeSlice, 4`, `b.Parallel(graph.ShapeCrossdep, 3`} {
		if !strings.Contains(code, want) {
			t.Errorf("emitted code missing %q", want)
		}
	}
}

func TestStreamTypesCarryThrough(t *testing.T) {
	src := `<xspcl name="x"><streams>
	  <stream name="f" type="frame" width="32" height="16"/>
	  <stream name="c" type="coeff" width="32" height="16"/>
	  <stream name="p" type="packet" cap="1024"/>
	</streams>
	<procedure name="main"><body>
	  <component name="k" class="kk"><stream port="out" name="f"/></component>
	</body></procedure></xspcl>`
	p := mustLoad(t, src)
	if p.Streams[0].Type != "frame" || p.Streams[0].W != 32 {
		t.Fatalf("frame decl: %+v", p.Streams[0])
	}
	if p.Streams[1].Type != "coeff" || p.Streams[2].Cap != 1024 {
		t.Fatalf("decls: %+v", p.Streams)
	}
}

// planFingerprint renders a plan as a canonical string: task names with
// their dependency names, in ID order.
func planFingerprint(t *testing.T, p *graph.Program) string {
	t.Helper()
	plan, err := graph.BuildPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tk := range plan.Tasks {
		fmt.Fprintf(&b, "%s/%s/%s/%d.%d opt=%v deps=", tk.Name, tk.Role, tk.Class, tk.Slice, tk.NSlices, tk.Options)
		preds := plan.Preds(tk.ID) // joins expanded: the whole relation
		names := make([]string, len(preds))
		for i, d := range preds {
			names[i] = plan.Tasks[d].Name
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%v params=%v ports=%v\n", names, tk.Params, tk.Ports)
	}
	return b.String()
}

func TestEmitXMLRoundTrip(t *testing.T) {
	for _, src := range []string{figure2, figure3, figure4, figure6} {
		prog1 := mustLoad(t, src)
		xml2, err := EmitXML(prog1)
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := Load(xml2)
		if err != nil {
			t.Fatalf("re-parse failed: %v\nemitted:\n%s", err, xml2)
		}
		if got, want := planFingerprint(t, prog2), planFingerprint(t, prog1); got != want {
			t.Fatalf("round trip changed the plan.\nfirst:\n%s\nsecond:\n%s\nemitted XML:\n%s", want, got, xml2)
		}
		// Stream and queue declarations survive too.
		if len(prog2.Streams) != len(prog1.Streams) || len(prog2.Queues) != len(prog1.Queues) {
			t.Fatal("stream/queue declarations lost in round trip")
		}
	}
}

func TestEmitXMLEscapesValues(t *testing.T) {
	prog := mustLoad(t, `<xspcl name="esc"><streams><stream name="s"/></streams>
	<procedure name="main"><body>
	  <component name="c" class="k">
	    <stream port="out" name="s"/>
	    <init name="label" value="a&lt;b&amp;c"/>
	  </component>
	</body></procedure></xspcl>`)
	out, err := EmitXML(prog)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Load(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if prog2.Components()[0].Params["label"] != "a<b&c" {
		t.Fatalf("escaped value mangled: %q", prog2.Components()[0].Params["label"])
	}
}
