package analysis

import (
	"fmt"

	"xspcl/internal/graph"
)

// The replication pass checks every replicate= attribute (width-based
// component replication, DESIGN.md §12) against the component catalog
// and the runtime's scheduling limits:
//
//   - Error: the class is not registered stateless. Replicating a
//     component whose Run keeps cross-iteration state is a data race;
//     the runtime refuses to load such a program, so the finding is the
//     build-time mirror of that rejection.
//   - Warning: a fixed width exceeds the analysis overlap. The runtime
//     clamps widths to Config.PipelineDepth (at most `overlap`
//     iterations are in flight), so the surplus width is unreachable.
//   - Info: the replicated component sits inside a slice/crossdep
//     group. Every data-parallel copy carries the width, so up to
//     N·width jobs of the stage may run at once — legal, but worth
//     knowing when budgeting cores.
//   - Info: an auto width is resolved once, at load, from the cost
//     model (predict.AutoWidths; xspclvet -predict N prints it).

// structuralOnly hides a catalog's StatelessCatalog extension from
// Program.Validate, so Analyze reaches the replication pass on programs
// that replicate stateful components (see Analyze).
type structuralOnly struct{ graph.Catalog }

// replication implements the pass. It walks the program tree (not the
// per-configuration plans: the attribute sits on nodes, and a finding
// should fire even when the component hides in a disabled option).
func (a *analyzer) replication() {
	var walk func(n *graph.Node, group *graph.Node)
	walk = func(n *graph.Node, group *graph.Node) {
		if n == nil {
			return
		}
		if n.Kind == graph.KindPar && n.Shape != graph.ShapeTask {
			group = n
		}
		if n.Kind == graph.KindComponent {
			if rep, err := graph.NodeReplicate(n); err == nil && !rep.IsDefault() {
				a.checkReplicate(n, rep, group)
			}
		}
		for _, c := range n.Children {
			walk(c, group)
		}
	}
	walk(a.prog.Root, nil)
}

// checkReplicate diagnoses one replicated component node; group is the
// innermost enclosing slice/crossdep group, if any.
func (a *analyzer) checkReplicate(n *graph.Node, rep graph.ReplicateSpec, group *graph.Node) {
	raw := n.Params[graph.ReplicateParam]
	if sc, ok := a.opt.Catalog.(graph.StatelessCatalog); !ok || !sc.ClassStateless(n.Class) {
		a.add(Finding{
			Pass:     PassReplication,
			Severity: Error,
			Message: fmt.Sprintf("component %q (class %s) declares replicate=%q but the class is not registered stateless: concurrent iterations of one instance would race on its state",
				n.Name, n.Class, raw),
		})
		return
	}
	if !rep.Auto && rep.Width > a.opt.Overlap {
		a.add(Finding{
			Pass:     PassReplication,
			Severity: Warning,
			Message: fmt.Sprintf("component %q declares replicate=%d but only %d iterations overlap: the runtime clamps the width to the pipeline depth",
				n.Name, rep.Width, a.opt.Overlap),
		})
	}
	if group != nil {
		a.add(Finding{
			Pass:     PassReplication,
			Severity: Info,
			Message: fmt.Sprintf("component %q replicates inside %s group %q: each data-parallel copy carries the width, so up to n×width jobs run concurrently",
				n.Name, group.Shape, group.Name),
		})
	}
	if rep.Auto {
		a.add(Finding{
			Pass:     PassReplication,
			Severity: Info,
			Message: fmt.Sprintf("component %q declares replicate=auto: the width is resolved at load from the cost model (xspclvet -predict N prints it for N cores)",
				n.Name),
		})
	}
}
