// Package analysis is the XSPCL whole-program static analyzer behind
// cmd/xspclvet and xspclc -vet. It runs on the elaborated graph.Program
// across every reachable option configuration (graph.Configurations —
// the lattice spanned by the declared defaults and the managers'
// event-binding transition relation) and checks the properties the
// structural validator cannot see:
//
//   - reads:    every stream a component reads is written by another
//     component ordered before it in the same iteration;
//   - reconfig: every option is reachable from the initial
//     configuration, and every halt scope quiesces (no stream crossing
//     the scope boundary is written from outside concurrently with it);
//   - bindings: event bindings that can never fire or never change
//     state, forwards nobody handles, and conflicting actions;
//   - faults:   every component with a non-default failure policy
//     (@on_error / @deadline) sits under a queued manager whose
//     bindings handle the synthetic "fault" event, and a fallback
//     configuration is reachable from degradation.
//
// DESIGN.md §9 describes the passes, and internal/conformance
// cross-validates the verdicts against real executions on both
// backends.
package analysis

import (
	"fmt"
	"sort"

	"xspcl/internal/graph"
)

// Severity grades a finding.
type Severity int

// Finding severities. Errors make xspclvet (and xspclc -vet) fail the
// build; warnings fail it only under -Werror; infos are advisory and
// never affect the exit status.
const (
	Info Severity = iota
	Warning
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Pass names, usable with Options.Disable and the -Wno-<pass> flags.
const (
	PassReads       = "reads"
	PassReconfig    = "reconfig"
	PassBindings    = "bindings"
	PassFaults      = "faults"
	PassReplication = "replication"
	PassFormats     = "formats"
)

// Passes lists every analyzer pass in execution order.
var Passes = []string{PassReads, PassReconfig, PassBindings, PassFaults, PassReplication, PassFormats}

// Finding is one analyzer diagnosis.
type Finding struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	Config   string   `json:"config,omitempty"` // ConfigKey of the exhibiting configuration
	Stream   string   `json:"stream,omitempty"`
	Cycle    []string `json:"cycle,omitempty"` // narrative of the offending constraint chain
}

// Report is the analyzer output.
type Report struct {
	Program  string    `json:"program"`
	Configs  int       `json:"configs"` // reachable configurations analyzed
	Findings []Finding `json:"findings"`
	// Formats is the solved format substitution of the initial
	// configuration (nil when the program carries no format
	// information).
	Formats *FormatsReport `json:"formats,omitempty"`
}

// Count returns how many findings have exactly the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any finding is an error.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// ErrorsByPass returns the error findings of one pass.
func (r *Report) ErrorsByPass(pass string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Pass == pass && f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

// DefaultOverlap is the iteration overlap the replication pass checks
// fixed widths against. It matches the runtime's default
// Config.PipelineDepth.
const DefaultOverlap = 5

// Options configures one analysis.
type Options struct {
	// Catalog resolves component-class port directions (required).
	Catalog graph.Catalog
	// Overlap is the iteration overlap the runtime will run at
	// (<= 0 means DefaultOverlap).
	Overlap int
	// Disable suppresses the named passes.
	Disable map[string]bool
}

// Analyze validates prog structurally and runs every enabled pass over
// its reachable configurations. A structural validation failure is
// returned as an error (analysis needs a well-formed program); pass
// diagnoses land in the Report.
func Analyze(prog *graph.Program, opt Options) (*Report, error) {
	if opt.Catalog == nil {
		return nil, fmt.Errorf("analysis: Options.Catalog is required")
	}
	if opt.Overlap <= 0 {
		opt.Overlap = DefaultOverlap
	}
	// Validation runs with the catalog's StatelessCatalog extension
	// hidden: replication of a stateful component then surfaces as a
	// replication-pass Error finding (a rendered diagnosis and exit 1
	// from xspclvet) instead of a load-stage hard error. The runtime
	// keeps the hard rejection — hinch.NewApp validates with the full
	// registry.
	if err := prog.Validate(structuralOnly{opt.Catalog}); err != nil {
		return nil, err
	}
	dirs, err := classDirs(prog, opt.Catalog)
	if err != nil {
		return nil, err
	}

	a := &analyzer{
		prog: prog,
		opt:  opt,
		dirs: dirs,
		rep:  &Report{Program: prog.Name},
		seen: map[string]bool{},
	}
	configs := prog.Configurations()
	a.rep.Configs = len(configs)
	for _, cfg := range configs {
		ci, err := a.buildInfo(cfg)
		if err != nil {
			return nil, err
		}
		a.infos = append(a.infos, ci)
	}

	if a.enabled(PassReads) {
		a.reads()
	}
	if a.enabled(PassReconfig) {
		a.reconfig()
	}
	if a.enabled(PassBindings) {
		a.bindings()
	}
	if a.enabled(PassFaults) {
		a.faults()
	}
	if a.enabled(PassReplication) {
		a.replication()
	}
	if a.enabled(PassFormats) {
		a.formats()
	}

	// Deterministic diagnostic order: severity first (errors lead),
	// then pass, configuration, stream and message — so -json output
	// is byte-stable across runs and suitable for golden comparison.
	sort.SliceStable(a.rep.Findings, func(i, j int) bool {
		fi, fj := a.rep.Findings[i], a.rep.Findings[j]
		if fi.Severity != fj.Severity {
			return fi.Severity > fj.Severity
		}
		if fi.Pass != fj.Pass {
			return fi.Pass < fj.Pass
		}
		if fi.Config != fj.Config {
			return fi.Config < fj.Config
		}
		if fi.Stream != fj.Stream {
			return fi.Stream < fj.Stream
		}
		return fi.Message < fj.Message
	})
	return a.rep, nil
}

// portDirs are one class's port directions.
type portDirs struct {
	in, out map[string]bool
}

// classDirs resolves the port directions of every class the program
// uses.
func classDirs(prog *graph.Program, cat graph.Catalog) (map[string]portDirs, error) {
	dirs := map[string]portDirs{}
	for _, c := range prog.Components() {
		if _, ok := dirs[c.Class]; ok {
			continue
		}
		in, out, err := cat.ClassPorts(c.Class)
		if err != nil {
			return nil, fmt.Errorf("analysis: component %q: %w", c.Name, err)
		}
		d := portDirs{in: map[string]bool{}, out: map[string]bool{}}
		for _, p := range in {
			d.in[p] = true
		}
		for _, p := range out {
			d.out[p] = true
		}
		dirs[c.Class] = d
	}
	return dirs, nil
}

// analyzer carries the shared pass state.
type analyzer struct {
	prog  *graph.Program
	opt   Options
	dirs  map[string]portDirs
	infos []*cfgInfo
	rep   *Report
	seen  map[string]bool // finding dedup across configurations
}

func (a *analyzer) enabled(pass string) bool { return !a.opt.Disable[pass] }

// add records a finding once: identical (pass, message) pairs arising
// in several configurations keep the first configuration only.
func (a *analyzer) add(f Finding) {
	key := f.Pass + "\x00" + f.Message
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.rep.Findings = append(a.rep.Findings, f)
}

// cfgInfo is the per-configuration view the passes share: the flattened
// plan, per-stream access tables and the dependency closure.
type cfgInfo struct {
	cfg     graph.Configuration
	key     string
	plan    *graph.Plan
	readers map[string][]int // stream -> component task IDs reading it
	writers map[string][]int // stream -> component task IDs writing it
	reach   []bitset         // reach[i]: tasks transitively depending on i
}

// buildInfo flattens one configuration and precomputes the tables.
func (a *analyzer) buildInfo(cfg graph.Configuration) (*cfgInfo, error) {
	plan, err := graph.BuildPlan(a.prog, cfg.Enabled)
	if err != nil {
		return nil, err
	}
	ci := &cfgInfo{
		cfg:     cfg,
		key:     cfg.Key(),
		plan:    plan,
		readers: map[string][]int{},
		writers: map[string][]int{},
		reach:   make([]bitset, len(plan.Tasks)),
	}
	for _, t := range plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		d := a.dirs[t.Class]
		for port, stream := range t.Ports {
			if d.in[port] {
				ci.readers[stream] = append(ci.readers[stream], t.ID)
			}
			if d.out[port] {
				ci.writers[stream] = append(ci.writers[stream], t.ID)
			}
		}
	}
	// Dependency closure, walked in reverse topological (ID) order:
	// reach[i] accumulates every task that transitively depends on i.
	n := len(plan.Tasks)
	for i := n - 1; i >= 0; i-- {
		ci.reach[i] = newBitset(n)
		for _, s := range plan.Succs(i) {
			ci.reach[i].set(s)
			ci.reach[i].or(ci.reach[s])
		}
	}
	return ci, nil
}

// after reports whether task b transitively depends on task a (a runs
// strictly before b in every schedule).
func (ci *cfgInfo) after(a, b int) bool { return ci.reach[a].has(b) }

// bitset is a fixed-size bit vector over task IDs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}
