package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Replication rides the same reserved-parameter channel as failure
// policies (OnErrorParam): the XSPCL front end stores the raw
// replicate attribute under ReplicateParam in Node.Params, the plan
// shares the map into Task.Params, and the runtime parses it once per
// task at engine construction. Keeping it a param means Program.String,
// EmitXML round-tripping and the structural tools all see replication
// without new AST surface.
const (
	// ReplicateParam holds the raw replicate attribute of a component.
	ReplicateParam = "@replicate"
)

// ReplicateSpec is the parsed replication request declared with
// <component replicate="N|auto">: how many iterations of the component
// may execute concurrently. Width 1 (the default) keeps the component
// serialised across iterations; a stateless component with width W runs
// up to W consecutive iterations at once, each on its own per-iteration
// stream buffers, so downstream consumers still observe iteration
// order.
type ReplicateSpec struct {
	// Auto leaves the width to the cost model: the runtime resolves it
	// once, at load (predict.AutoWidths).
	Auto bool
	// Width is the requested replica width (>= 1); 1 for Auto.
	Width int
}

// IsDefault reports whether the spec requests no replication (the
// serialised-per-instance behaviour every component had before the
// attribute existed).
func (r ReplicateSpec) IsDefault() bool { return !r.Auto && r.Width <= 1 }

// String renders the spec back to its attribute form.
func (r ReplicateSpec) String() string {
	if r.Auto {
		return "auto"
	}
	return strconv.Itoa(r.Width)
}

// ParseReplicate parses a replicate attribute.
//
// Grammar:
//
//	replicate = "" | "auto" | N   (integer >= 1)
func ParseReplicate(s string) (ReplicateSpec, error) {
	r := ReplicateSpec{Width: 1}
	switch t := strings.TrimSpace(s); {
	case t == "":
		// default: no replication
	case t == "auto":
		r.Auto = true
	default:
		n, err := strconv.Atoi(t)
		if err != nil || n < 1 {
			return r, fmt.Errorf("graph: bad replicate %q (want a positive integer or \"auto\")", s)
		}
		r.Width = n
	}
	return r, nil
}

// NodeReplicate parses the replication spec attached to a component
// node (zero-width-1 spec when the node carries none). The syntax was
// checked by Program.Validate, so errors only surface for hand-built
// graphs.
func NodeReplicate(n *Node) (ReplicateSpec, error) {
	return ParseReplicate(n.Params[ReplicateParam])
}

// TaskReplicate parses the replication spec attached to a plan task.
func TaskReplicate(t *Task) (ReplicateSpec, error) {
	return ParseReplicate(t.Params[ReplicateParam])
}

// StatelessCatalog is the optional extension of Catalog a registry
// implements when it knows which component classes are stateless
// (Run touches only per-iteration stream payloads and read-only
// configuration, so concurrent iterations on one instance are safe).
// Validation uses it to reject replication of stateful components.
type StatelessCatalog interface {
	// ClassStateless reports whether the class is registered as
	// stateless. Unknown classes report false.
	ClassStateless(class string) bool
}
