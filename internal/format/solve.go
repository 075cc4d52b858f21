package format

import (
	"fmt"
	"sort"
	"strconv"
)

// The constraint solver. Callers (graph.SolveFormats) allocate solver
// variables for every stream slot and every signature variable of every
// component instance, add equations between instantiated expressions,
// and Solve computes the most general substitution by unification with
// arithmetic propagation:
//
//  1. A fixpoint loop processes equations whose shapes permit an exact
//     step — ground/ground checks, variable bindings, variable unions,
//     and '*' inversions (exact division).
//  2. When the loop stalls, one division equation is discharged: a '/'
//     with known operands binds its result to the canonical
//     evenDown(floor(a/k)), and a '/' with a known dividend and result
//     scans for the unique divisor satisfying the downscale-fit window
//     (see the package comment). Then the fixpoint loop resumes.
//
// Every binding and union records the equation that caused it, merged
// per equivalence class, so a conflict can narrate the chain of
// constraints that produced both values — the analyzer renders it
// indented below the finding.

// X is an instantiated expression over solver variables.
type X struct {
	kind Kind
	atom string
	n    int
	id   int // Var: solver variable id
	op   byte
	l, r *X
}

// IntX returns a ground integer expression.
func IntX(n int) *X { return &X{kind: Int, n: n} }

// AtomX returns a ground atom expression.
func AtomX(a string) *X { return &X{kind: Atom, atom: a} }

// OpX returns a binary arithmetic expression.
func OpX(op byte, l, r *X) *X { return &X{kind: OpExpr, op: op, l: l, r: r} }

// String renders the expression for diagnostics.
func (x *X) String() string {
	switch x.kind {
	case Atom:
		return x.atom
	case Int:
		return strconv.Itoa(x.n)
	case Var:
		return fmt.Sprintf("_%d", x.id)
	case OpExpr:
		return x.l.String() + string(x.op) + x.r.String()
	}
	return "?"
}

// value is a ground scalar: an integer or an atom.
type value struct {
	isInt bool
	n     int
	atom  string
}

func (v value) String() string {
	if v.isInt {
		return strconv.Itoa(v.n)
	}
	return v.atom
}

func (v value) equal(o value) bool { return v.isInt == o.isInt && v.n == o.n && v.atom == o.atom }

// equation is one constraint a = b.
type equation struct {
	a, b   *X
	reason string // narrative line for provenance chains
	stream string // attribution for conflicts ("" when not port-level)
	slot   string
	done   bool
}

// System accumulates variables and equations.
type System struct {
	names   []string // variable debug names
	parent  []int    // union-find
	val     []*value // on roots: bound ground value
	touched [][]int  // on roots: equation indices that shaped this class
	eqs     []*equation
}

// NewSystem returns an empty constraint system.
func NewSystem() *System { return &System{} }

// NewVar allocates a solver variable. The name is only used in
// diagnostics.
func (s *System) NewVar(name string) int {
	id := len(s.parent)
	s.parent = append(s.parent, id)
	s.names = append(s.names, name)
	s.val = append(s.val, nil)
	s.touched = append(s.touched, nil)
	return id
}

// V returns the expression referencing variable id.
func (s *System) V(id int) *X { return &X{kind: Var, id: id} }

// Equate adds the constraint a = b. The reason is one narrative line
// ("stream \"x\" declares width 720"); stream/slot attribute a conflict
// on this equation to a stream slot.
func (s *System) Equate(a, b *X, reason, stream, slot string) {
	s.eqs = append(s.eqs, &equation{a: a, b: b, reason: reason, stream: stream, slot: slot})
}

func (s *System) find(v int) int {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

// Conflict is one unsatisfiable constraint.
type Conflict struct {
	Stream string   // offending stream ("" when unattributed)
	Slot   string   // offending slot name
	Detail string   // e.g. `width resolves to both 180 and 360`
	Chain  []string // narrative of the constraints that collided
}

// Result is the solved substitution.
type Result struct {
	Conflicts []Conflict
	sys       *System
}

// Int returns the solved integer value of a variable.
func (r *Result) Int(v int) (int, bool) {
	root := r.sys.find(v)
	if val := r.sys.val[root]; val != nil && val.isInt {
		return val.n, true
	}
	return 0, false
}

// Value returns the solved ground value of a variable, rendered.
func (r *Result) Value(v int) (string, bool) {
	root := r.sys.find(v)
	if val := r.sys.val[root]; val != nil {
		return val.String(), true
	}
	return "", false
}

// evenDown rounds down to the nearest even number.
func evenDown(n int) int { return n &^ 1 }

// fitDiv reports whether c is an acceptable result of the downscale
// division a/k: floor(a/k)-1 <= c <= floor(a/k), c >= 0.
func fitDiv(a, k, c int) bool {
	if k <= 0 || c < 0 {
		return false
	}
	q := a / k
	return c == q || c == q-1
}

// canonDiv is the canonical value produced through '/': the even-aligned
// box-downscale output extent.
func canonDiv(a, k int) int { return evenDown(a / k) }

// subst resolves x against the current substitution: bound variables
// are replaced by their values, and an operand that is itself a fully
// ground operation folds to its canonical value (exact for '*',
// evenDown(floor) for '/'; the downscale-fit slack applies only at the
// equation's top level).
func (s *System) subst(x *X) *X {
	switch x.kind {
	case Var:
		root := s.find(x.id)
		if v := s.val[root]; v != nil {
			if v.isInt {
				return IntX(v.n)
			}
			return AtomX(v.atom)
		}
		if root != x.id {
			return &X{kind: Var, id: root}
		}
		return x
	case OpExpr:
		l, r := s.subst(x.l), s.subst(x.r)
		if l.kind == OpExpr {
			l = foldOp(l)
		}
		if r.kind == OpExpr {
			r = foldOp(r)
		}
		return &X{kind: OpExpr, op: x.op, l: l, r: r}
	}
	return x
}

// foldOp folds a ground operation to its canonical value; non-ground
// or invalid operations pass through.
func foldOp(x *X) *X {
	if x.kind != OpExpr || x.l.kind != Int || x.r.kind != Int {
		return x
	}
	switch x.op {
	case '*':
		return IntX(x.l.n * x.r.n)
	case '/':
		if x.r.n <= 0 {
			return x
		}
		return IntX(canonDiv(x.l.n, x.r.n))
	}
	return x
}

// ground extracts a ground scalar from a substituted expression.
func ground(x *X) (value, bool) {
	switch x.kind {
	case Int:
		return value{isInt: true, n: x.n}, true
	case Atom:
		return value{atom: x.atom}, true
	}
	return value{}, false
}

// vars appends the variable ids occurring in x.
func vars(x *X, out []int) []int {
	switch x.kind {
	case Var:
		return append(out, x.id)
	case OpExpr:
		return vars(x.r, vars(x.l, out))
	}
	return out
}

// Solve runs the fixpoint and returns the substitution with any
// conflicts. The system must not be mutated afterwards.
func (s *System) Solve() *Result {
	res := &Result{sys: s}
	for {
		progress := false
		for i, e := range s.eqs {
			if e.done {
				continue
			}
			switch s.step(i, e, res, false) {
			case stepProgress:
				progress = true
			case stepConflict:
				e.done = true
				progress = true
			}
		}
		if progress {
			continue
		}
		// Stalled: discharge one division equation canonically.
		for i, e := range s.eqs {
			if e.done {
				continue
			}
			if st := s.step(i, e, res, true); st != stepDefer {
				progress = true
				break
			}
		}
		if !progress {
			return res
		}
	}
}

type stepResult int

const (
	stepDefer stepResult = iota
	stepProgress
	stepConflict
)

// step attempts one equation. In stall mode, division equations may
// bind canonical values (see Solve).
func (s *System) step(idx int, e *equation, res *Result, stall bool) stepResult {
	a, b := s.subst(e.a), s.subst(e.b)
	// Normalise: an operation, else a ground scalar, goes left.
	if b.kind == OpExpr && a.kind != OpExpr {
		a, b = b, a
	} else if a.kind == Var && b.kind != Var {
		a, b = b, a
	}
	ga, okA := ground(a)
	gb, okB := ground(b)
	switch {
	case okA && okB:
		e.done = true
		if !ga.equal(gb) {
			s.conflict(idx, e, res, ga, gb)
			return stepConflict
		}
		return stepProgress
	case okA && b.kind == Var:
		e.done = true
		return s.bind(idx, e, res, b.id, ga)
	case a.kind == Var && b.kind == Var:
		e.done = true
		return s.union(idx, e, res, a.id, b.id)
	case a.kind == OpExpr:
		return s.stepOp(idx, e, res, a, b, stall)
	}
	return stepDefer
}

// stepOp handles op = other, where other is ground, a variable, or
// another op.
func (s *System) stepOp(idx int, e *equation, res *Result, op, other *X, stall bool) stepResult {
	lv, okL := ground(op.l)
	rv, okR := ground(op.r)
	if okL && !lv.isInt || okR && !rv.isInt {
		e.done = true
		s.conflictDetail(idx, e, res, fmt.Sprintf("layout term %s where a number is required", op))
		return stepConflict
	}
	ov, okO := ground(other)
	if okO && !ov.isInt {
		e.done = true
		s.conflictDetail(idx, e, res, fmt.Sprintf("layout term %s where a number is required", ov))
		return stepConflict
	}

	if okL && okR {
		// Both operands known.
		if op.op == '/' && rv.n <= 0 {
			e.done = true
			s.conflictDetail(idx, e, res, fmt.Sprintf("division by %d", rv.n))
			return stepConflict
		}
		if okO {
			// Fully ground: check.
			e.done = true
			ok := false
			if op.op == '*' {
				ok = lv.n*rv.n == ov.n
			} else {
				ok = fitDiv(lv.n, rv.n, ov.n)
			}
			if !ok {
				s.conflict(idx, e, res, value{isInt: true, n: eval(op.op, lv.n, rv.n)}, ov)
				return stepConflict
			}
			return stepProgress
		}
		if other.kind == Var {
			if op.op == '*' {
				e.done = true
				return s.bind(idx, e, res, other.id, value{isInt: true, n: lv.n * rv.n})
			}
			// '/' forward binding only once exact propagation stalls, so
			// a declared value gets the first word and the fit window
			// applies as a check instead.
			if stall {
				e.done = true
				return s.bind(idx, e, res, other.id, value{isInt: true, n: canonDiv(lv.n, rv.n)})
			}
		}
		return stepDefer
	}

	if okO {
		// One operand unknown, result known: invert.
		if op.op == '*' {
			// x*y = c with one of x,y known: exact division.
			var known value
			var unknown *X
			if okL {
				known, unknown = lv, op.r
			} else if okR {
				known, unknown = rv, op.l
			} else {
				return stepDefer
			}
			if unknown.kind != Var {
				return stepDefer
			}
			e.done = true
			if known.n == 0 || ov.n%known.n != 0 {
				s.conflictDetail(idx, e, res, fmt.Sprintf("%d does not divide %d", known.n, ov.n))
				return stepConflict
			}
			return s.bind(idx, e, res, unknown.id, value{isInt: true, n: ov.n / known.n})
		}
		// a/k = c with k unknown: scan for the divisors whose downscale
		// window contains c; bind only a unique solution (stall phase).
		if op.op == '/' && okL && op.r.kind == Var && stall {
			var candidates []int
			for k := 1; k <= lv.n; k++ {
				if fitDiv(lv.n, k, ov.n) {
					candidates = append(candidates, k)
				}
			}
			switch len(candidates) {
			case 0:
				e.done = true
				s.conflictDetail(idx, e, res, fmt.Sprintf("no integer factor scales %d down to %d", lv.n, ov.n))
				return stepConflict
			case 1:
				e.done = true
				return s.bind(idx, e, res, op.r.id, value{isInt: true, n: candidates[0]})
			}
			// Ambiguous: leave under-constrained for another equation
			// (e.g. the height) to settle.
			return stepDefer
		}
	}
	return stepDefer
}

func eval(op byte, a, b int) int {
	if op == '*' {
		return a * b
	}
	return a / b
}

// bind assigns a ground value to a variable's class.
func (s *System) bind(idx int, e *equation, res *Result, v int, val value) stepResult {
	root := s.find(v)
	if cur := s.val[root]; cur != nil {
		if cur.equal(val) {
			return stepProgress
		}
		s.conflict(idx, e, res, *cur, val)
		return stepConflict
	}
	s.val[root] = &val
	s.touched[root] = append(s.touched[root], idx)
	return stepProgress
}

// union merges two variables' classes.
func (s *System) union(idx int, e *equation, res *Result, a, b int) stepResult {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return stepProgress
	}
	va, vb := s.val[ra], s.val[rb]
	if va != nil && vb != nil && !va.equal(*vb) {
		s.conflict(idx, e, res, *va, *vb)
		return stepConflict
	}
	s.parent[rb] = ra
	if va == nil {
		s.val[ra] = vb
	}
	s.touched[ra] = append(s.touched[ra], s.touched[rb]...)
	s.touched[ra] = append(s.touched[ra], idx)
	s.touched[rb] = nil
	return stepProgress
}

// conflict records an unsatisfiable equation that produced two values.
func (s *System) conflict(idx int, e *equation, res *Result, got, want value) {
	slot := e.slot
	if slot == "" {
		slot = "format"
	}
	s.conflictDetail(idx, e, res, fmt.Sprintf("%s resolves to both %s and %s", slot, got, want))
}

// conflictDetail records a conflict with an explicit detail line and
// assembles the provenance chain: the transitive closure of equations
// that shaped the equivalence classes feeding this one, rendered in
// construction order (stream declarations were added first, so the
// narrative reads declarations → constraints → collision).
func (s *System) conflictDetail(idx int, e *equation, res *Result, detail string) {
	seen := map[int]bool{idx: true}
	queue := []int{idx}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, v := range vars(s.eqs[i].b, vars(s.eqs[i].a, nil)) {
			for _, t := range s.touched[s.find(v)] {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	order := make([]int, 0, len(seen))
	for i := range seen {
		order = append(order, i)
	}
	sort.Ints(order)
	chain := make([]string, 0, len(order))
	dedup := map[string]bool{}
	for _, i := range order {
		r := s.eqs[i].reason
		if r != "" && !dedup[r] {
			dedup[r] = true
			chain = append(chain, r)
		}
	}
	res.Conflicts = append(res.Conflicts, Conflict{
		Stream: e.stream, Slot: e.slot, Detail: detail, Chain: chain,
	})
}
