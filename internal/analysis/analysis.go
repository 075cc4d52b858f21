// Package analysis is the XSPCL whole-program static analyzer behind
// cmd/xspclvet and xspclc -vet. It runs on the elaborated graph.Program
// across every reachable option configuration (graph.Configurations —
// the lattice spanned by the declared defaults and the managers'
// event-binding transition relation) and checks the properties the
// structural validator cannot see:
//
//   - deadlock:  blocking-read wait cycles through bounded streams
//     (a component whose only producers are ordered after it) and the
//     capacity rule of crossdep groups (FIFO depth ≥ the slice window
//     fan-in), with the offending cycle and the minimal capacity fix;
//   - sizing:   the minimal per-stream FIFO depth that preserves full
//     pipeline parallelism at a given iteration overlap, as a
//     machine-readable report xspclc -autosize applies;
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
// The deadlock model targets the paper's per-stream bounded-FIFO
// realization (a refinement of the current iteration-granular runtime,
// which acquires all of an iteration's slots atomically and therefore
// cannot capacity-deadlock); DESIGN.md §9 states the soundness
// argument, and internal/conformance cross-validates the verdicts
// against real executions on both backends.
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
	PassDeadlock    = "deadlock"
	PassSizing      = "sizing"
	PassReconfig    = "reconfig"
	PassBindings    = "bindings"
	PassFaults      = "faults"
	PassReplication = "replication"
	PassFormats     = "formats"
)

// Passes lists every analyzer pass in execution order.
var Passes = []string{PassDeadlock, PassSizing, PassReconfig, PassBindings, PassFaults, PassReplication, PassFormats}

// CapacityFix is the minimal FIFO-depth change that removes a capacity
// deadlock.
type CapacityFix struct {
	Stream string `json:"stream"`
	Depth  int    `json:"depth"`
}

// Finding is one analyzer diagnosis.
type Finding struct {
	Pass     string       `json:"pass"`
	Severity Severity     `json:"severity"`
	Message  string       `json:"message"`
	Config   string       `json:"config,omitempty"` // ConfigKey of the exhibiting configuration
	Stream   string       `json:"stream,omitempty"`
	Cycle    []string     `json:"cycle,omitempty"` // narrative of the offending cycle
	Fix      *CapacityFix `json:"fix,omitempty"`
}

// StreamSizing is one stream's entry in the buffer-sizing report:
// the FIFO depth required to sustain the given iteration overlap,
// maximised over every reachable configuration.
type StreamSizing struct {
	Stream   string `json:"stream"`
	Declared int    `json:"declared"` // 0 = application default
	Required int    `json:"required"`
	Overlap  int    `json:"overlap"`
}

// Report is the analyzer output.
type Report struct {
	Program  string         `json:"program"`
	Configs  int            `json:"configs"` // reachable configurations analyzed
	Findings []Finding      `json:"findings"`
	Sizing   []StreamSizing `json:"sizing"`
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

// Defaults for Options.
const (
	// DefaultDepth is assumed for streams without a declared depth. It
	// matches the runtime's default Config.StreamCapacity.
	DefaultDepth = 3
	// DefaultOverlap is the iteration overlap the sizing pass targets.
	// It matches the runtime's default Config.PipelineDepth.
	DefaultOverlap = 5
)

// Options configures one analysis.
type Options struct {
	// Catalog resolves component-class port directions (required).
	Catalog graph.Catalog
	// DefaultDepth is the FIFO depth assumed for streams with no
	// declared depth (<= 0 means DefaultDepth).
	DefaultDepth int
	// Overlap is the iteration overlap the sizing pass preserves
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
	if opt.DefaultDepth <= 0 {
		opt.DefaultDepth = DefaultDepth
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

	if a.enabled(PassDeadlock) {
		a.deadlock()
	}
	if a.enabled(PassSizing) {
		a.sizing()
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

// effDepth returns the effective FIFO depth of a stream: its declared
// depth, or the analysis default.
func (a *analyzer) effDepth(stream string) int {
	for _, s := range a.prog.Streams {
		if s.Name == stream && s.Depth > 0 {
			return s.Depth
		}
	}
	return a.opt.DefaultDepth
}

// declDepth returns the declared depth (0 = default).
func (a *analyzer) declDepth(stream string) int {
	for _, s := range a.prog.Streams {
		if s.Name == stream {
			return s.Depth
		}
	}
	return 0
}

// cfgInfo is the per-configuration view the passes share: the flattened
// plan, per-stream access tables, ASAP levels and the dependency
// closure.
type cfgInfo struct {
	cfg     graph.Configuration
	key     string
	plan    *graph.Plan
	readers map[string][]int // stream -> component task IDs reading it
	writers map[string][]int // stream -> component task IDs writing it
	level   []int            // ASAP level per task (1-based)
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
		level:   make([]int, len(plan.Tasks)),
		reach:   make([]bitset, len(plan.Tasks)),
	}
	for _, t := range plan.Tasks {
		lvl := 1
		for _, d := range plan.Preds(t.ID) {
			if ci.level[d]+1 > lvl {
				lvl = ci.level[d] + 1
			}
		}
		ci.level[t.ID] = lvl
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

// depPath returns task names along a dependency path from task a to
// task b (inclusive), or nil if none exists.
func (ci *cfgInfo) depPath(a, b int) []string {
	if a == b {
		return []string{ci.plan.Tasks[a].Name}
	}
	prev := make([]int, len(ci.plan.Tasks))
	for i := range prev {
		prev[i] = -1
	}
	queue := []int{a}
	prev[a] = a
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range ci.plan.Succs(cur) {
			if prev[s] != -1 {
				continue
			}
			prev[s] = cur
			if s == b {
				var names []string
				for at := b; ; at = prev[at] {
					names = append(names, ci.plan.Tasks[at].Name)
					if at == a {
						break
					}
				}
				for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
					names[i], names[j] = names[j], names[i]
				}
				return names
			}
			queue = append(queue, s)
		}
	}
	return nil
}

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
