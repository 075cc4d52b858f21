package analysis

import "fmt"

// The reads pass checks that every read is defined. An iteration takes
// one buffer set for all its streams, last written by whichever
// iteration held it before, and the plan's dependency order comes from
// the TREE (sequential position, parallel shape), not from port
// matching. So the language happily expresses a component that reads a
// stream before anything in its iteration has written it: the read
// then sees whatever the previous holder of the set left there, and
// the sink output depends on the schedule. In a Kahn network such a
// read has no meaning.
//
// The rule is checked at whole-stream granularity: a writer that
// covers one plane or one slice band counts as defining the stream.

// reads flags, in every reachable configuration, each component that
// reads a stream no other writer ordered strictly before it writes —
// whether the stream has no writer at all, only the reader itself,
// only writers sequenced after it, or only writers in parallel with it.
func (a *analyzer) reads() {
	for _, ci := range a.infos {
		for _, decl := range a.prog.Streams {
			s := decl.Name
			for _, r := range ci.readers[s] {
				if !ci.definedBefore(s, r) {
					a.add(Finding{
						Pass: PassReads, Severity: Error, Stream: s, Config: ci.key,
						Message: fmt.Sprintf("component %q reads stream %q, which no component ordered before it writes",
							ci.plan.Tasks[r].Node, s),
					})
				}
			}
		}
	}
}

// definedBefore reports whether a writer of stream s other than task r
// runs strictly before r.
func (ci *cfgInfo) definedBefore(s string, r int) bool {
	for _, w := range ci.writers[s] {
		if w != r && ci.after(w, r) {
			return true
		}
	}
	return false
}
