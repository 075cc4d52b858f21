package analysis

import (
	"fmt"
	"io"
	"sort"
)

// Render writes the human-readable finding list, one diagnosis per
// line (with its narrative indented below it), in the
// file:style\n prefix convention of go vet.
func Render(w io.Writer, rep *Report) {
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "%s: %s: [%s] %s", rep.Program, f.Severity, f.Pass, f.Message)
		if f.Config != "" {
			fmt.Fprintf(w, " (configuration %s)", f.Config)
		}
		fmt.Fprintln(w)
		for _, line := range f.Cycle {
			fmt.Fprintf(w, "\t%s\n", line)
		}
	}
}

// RenderFormats writes the solved format substitution of the initial
// configuration: each typed stream's reconciled term, then any
// component parameters the solver inferred (the values hinch.NewApp
// injects to specialise generic components).
func RenderFormats(w io.Writer, rep *Report) {
	if rep.Formats == nil {
		return
	}
	if len(rep.Formats.Streams) > 0 {
		fmt.Fprintf(w, "%s: stream formats (initial configuration):\n", rep.Program)
		names := make([]string, 0, len(rep.Formats.Streams))
		for s := range rep.Formats.Streams {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			fmt.Fprintf(w, "\t%-20s %s\n", s, rep.Formats.Streams[s])
		}
	}
	if len(rep.Formats.Params) > 0 {
		fmt.Fprintf(w, "%s: inferred component parameters:\n", rep.Program)
		comps := make([]string, 0, len(rep.Formats.Params))
		for c := range rep.Formats.Params {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		for _, c := range comps {
			params := rep.Formats.Params[c]
			keys := make([]string, 0, len(params))
			for k := range params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "\t%-20s %s=%s\n", c, k, params[k])
			}
		}
	}
}

// Failed reports whether the findings should fail the build: any error,
// or any warning when werror is set.
func (r *Report) Failed(werror bool) bool {
	if r.HasErrors() {
		return true
	}
	return werror && r.Count(Warning) > 0
}
