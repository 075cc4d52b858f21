package analysis

import (
	"bytes"
	"encoding/json"
	"testing"

	"xspcl/internal/graph"
)

// orderProg builds a program that produces findings in several passes
// at both severities, so the deterministic sort in Analyze has real
// work to do:
//
//   - a reads error (reader sequenced before its stream's writer),
//   - a formats error (two conflicting ground terms bridged by an
//     identity-interface component),
//   - formats warnings (a typed stream nothing constrains).
func orderProg() *graph.Program {
	b := graph.NewBuilder("order")
	b.Stream("a").Stream("late")
	b.StreamDecl(graph.StreamDecl{Name: "fa", Format: "yuv420(64,64)"})
	b.StreamDecl(graph.StreamDecl{Name: "fb", Format: "yuv420(32,32)"})
	b.StreamDecl(graph.StreamDecl{Name: "loose", Type: "frame"})
	b.Body(
		b.Component("s", "src", graph.Ports{"out": "a"}, nil),
		// Reads late before lateprod writes it: reads error.
		b.Component("blocked", "work", graph.Ports{"in": "late", "out": "late"}, nil),
		b.Component("lateprod", "work", graph.Ports{"in": "a", "out": "late"}, nil),
		// Identity interface bridging two incompatible formats.
		b.Component("fsrc", "work", graph.Ports{"in": "a", "out": "fa"}, nil),
		b.Component("bridge", "work", graph.Ports{"in": "fa", "out": "fb"},
			graph.Params{graph.InterfaceParam: "in: F; out: F"}),
		b.Component("fsink", "sink", graph.Ports{"in": "fb"}, nil),
		// Typed but unconstrained: under-constrained warnings.
		b.Component("lsrc", "work", graph.Ports{"in": "a", "out": "loose"}, nil),
		b.Component("lsink", "sink", graph.Ports{"in": "loose"}, nil),
	)
	return b.MustProgram()
}

// TestFindingOrderPinned pins the diagnostic ordering contract:
// severity descending (errors lead), then pass, configuration, stream
// and message ascending. Golden tools diffing xspclvet output depend
// on this exact sequence.
func TestFindingOrderPinned(t *testing.T) {
	rep := analyze(t, orderProg(), Options{})
	type key struct {
		sev    Severity
		pass   string
		stream string
	}
	want := []key{
		{Error, PassFormats, "fb"}, // height conflict
		{Error, PassFormats, "fb"}, // width conflict
		{Error, PassReads, "late"},
		{Warning, PassFormats, "loose"},
		{Warning, PassFormats, "loose"},
	}
	if len(rep.Findings) != len(want) {
		t.Fatalf("findings = %d, want %d: %+v", len(rep.Findings), len(want), rep.Findings)
	}
	for i, w := range want {
		f := rep.Findings[i]
		if f.Severity != w.sev || f.Pass != w.pass || f.Stream != w.stream {
			t.Errorf("finding %d = %s/%s/%s, want %s/%s/%s",
				i, f.Severity, f.Pass, f.Stream, w.sev, w.pass, w.stream)
		}
	}
	// Within equal (severity, pass, config, stream) the message breaks
	// the tie: the paired conflicts and warnings must come out sorted.
	for _, pair := range [][2]int{{0, 1}, {3, 4}} {
		if a, b := rep.Findings[pair[0]].Message, rep.Findings[pair[1]].Message; a >= b {
			t.Errorf("equal-key findings not message-sorted: %q !< %q", a, b)
		}
	}
}

// TestRenderByteStable: repeated Analyze runs over the same program
// render — and JSON-encode — to identical bytes. This is the property
// xspclvet -json consumers (and CI golden checks) rely on; map
// iteration order inside the analyzer must never leak into output.
func TestRenderByteStable(t *testing.T) {
	encode := func() (text, js []byte) {
		t.Helper()
		rep := analyze(t, orderProg(), Options{})
		var buf bytes.Buffer
		Render(&buf, rep)
		RenderFormats(&buf, rep)
		j, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf.Bytes(), j
	}
	text0, js0 := encode()
	if len(text0) == 0 {
		t.Fatal("rendered output empty")
	}
	for i := 0; i < 10; i++ {
		text, js := encode()
		if !bytes.Equal(text, text0) {
			t.Fatalf("run %d: rendered text diverged:\n--- first\n%s\n--- now\n%s", i, text0, text)
		}
		if !bytes.Equal(js, js0) {
			t.Fatalf("run %d: JSON encoding diverged:\n--- first\n%s\n--- now\n%s", i, js0, js)
		}
	}
}
