package xspcl_test

import (
	"bytes"
	"strings"
	"testing"

	"xspcl"
)

const tinySpec = `
<xspcl name="tiny">
  <streams>
    <stream name="v" type="frame" width="64" height="48"/>
  </streams>
  <procedure name="main">
    <body>
      <component name="src" class="videosrc">
        <stream port="out" name="v"/>
        <init name="width" value="64"/>
        <init name="height" value="48"/>
        <init name="frames" value="6"/>
      </component>
      <component name="snk" class="videosink">
        <stream port="in" name="v"/>
      </component>
    </body>
  </procedure>
</xspcl>`

func TestLoadAndRunSim(t *testing.T) {
	prog, err := xspcl.Load(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	app, err := xspcl.NewApp(prog, xspcl.DefaultRegistry(), xspcl.Config{
		Backend: xspcl.BackendSim, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 6 || rep.Cycles <= 0 {
		t.Fatalf("report: %v", rep)
	}
}

func TestLoadReader(t *testing.T) {
	prog, err := xspcl.LoadReader(strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "tiny" {
		t.Fatalf("name %q", prog.Name)
	}
}

func TestBuilderPathMatchesXMLPath(t *testing.T) {
	b := xspcl.NewBuilder("tiny")
	b.FrameStream("v", 64, 48)
	b.Body(
		b.Component("src", "videosrc", xspcl.Ports{"out": "v"},
			xspcl.Params{"width": "64", "height": "48", "frames": "6"}),
		b.Component("snk", "videosink", xspcl.Ports{"in": "v"}, nil),
	)
	prog := b.MustProgram()
	fromXML, err := xspcl.Load(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *xspcl.Program) int64 {
		app, err := xspcl.NewApp(p, xspcl.DefaultRegistry(), xspcl.Config{Backend: xspcl.BackendSim, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	if run(prog) != run(fromXML) {
		t.Fatal("builder and XML paths produce different schedules")
	}
}

func TestEmitGoFromFacade(t *testing.T) {
	prog, err := xspcl.Load(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	code, err := xspcl.EmitGo(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "package main") || !strings.Contains(code, `b.FrameStream("v", 64, 48)`) {
		t.Fatalf("emitted code:\n%s", code)
	}
}

func TestMediaHelpers(t *testing.T) {
	frames := xspcl.GenerateVideo(32, 16, 2, 1)
	if len(frames) != 2 || frames[0].W != 32 {
		t.Fatal("GenerateVideo")
	}
	var buf bytes.Buffer
	if err := xspcl.WriteYUV(&buf, frames[0]); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 32*16*3/2 {
		t.Fatalf("yuv size %d", buf.Len())
	}
	f := xspcl.NewFrame(16, 16)
	if _, err := xspcl.FrameOf(f); err != nil {
		t.Fatal(err)
	}
	if _, err := xspcl.FrameOf(42); err == nil {
		t.Fatal("FrameOf(42) succeeded")
	}
	if _, err := xspcl.PacketOf(&xspcl.Packet{}); err != nil {
		t.Fatal(err)
	}
}

func TestEventInjection(t *testing.T) {
	// Managers, options and externally injected events through the
	// public API.
	spec := `
<xspcl name="opt">
  <streams><stream name="v" type="frame" width="32" height="32"/></streams>
  <queues><queue name="ui"/></queues>
  <procedure name="main">
    <body>
      <component name="src" class="videosrc">
        <stream port="out" name="v"/>
        <init name="width" value="32"/>
        <init name="height" value="32"/>
        <init name="frames" value="40"/>
      </component>
      <manager name="m" queue="ui">
        <on event="go" action="enable" option="extra"/>
        <body>
          <option name="extra" default="off">
            <body>
              <component name="blurx" class="blurh">
                <stream port="in" name="v"/>
                <stream port="out" name="v"/>
              </component>
            </body>
          </option>
        </body>
      </manager>
      <component name="snk" class="videosink">
        <stream port="in" name="v"/>
      </component>
    </body>
  </procedure>
</xspcl>`
	prog, err := xspcl.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	app, err := xspcl.NewApp(prog, xspcl.DefaultRegistry(), xspcl.Config{Backend: xspcl.BackendReal, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	app.Queue("ui").Push(xspcl.Event{Name: "go"})
	rep, err := app.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigs != 1 {
		t.Fatalf("reconfigs %d", rep.Reconfigs)
	}
	if app.Component("blurx") == nil {
		t.Fatal("option not enabled")
	}
}
