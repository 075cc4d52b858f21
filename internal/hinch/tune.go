package hinch

import (
	"fmt"
	"sync/atomic"

	"xspcl/internal/graph"
	"xspcl/internal/predict"
)

// The feedback autotuner closes the loop the paper's Figure 1 draws
// between the prediction tool and the running application: instead of a
// front-end reading the prediction and re-writing the specification, the
// runtime samples its own occupancy counters at fixed epochs and resizes
// the one data-parallelism knob it owns while the application runs —
// the replica width of components declared replicate="auto". The live
// stream-FIFO capacity is not searched: it follows from the widths
// (resizeWidth). Its round is the first role on the engine's
// epoch clock (engine.tick): on the sim backend epochs are virtual-time
// boundaries, so the whole decision trace is deterministic for a fixed
// seed; on the real backend the clock goroutine samples under the
// engine lock.

// TuneDecision is one autotuner width resize, recorded in decision
// order.
type TuneDecision struct {
	Epoch int    // tuning epoch the decision was taken in (0-based)
	Task  int    // task ID
	Name  string // task name
	From  int
	To    int
}

func (d TuneDecision) String() string {
	return fmt.Sprintf("epoch %d: width %s %d->%d", d.Epoch, d.Name, d.From, d.To)
}

// TuneStats summarises autotuner activity (TuneView.Stats).
type TuneStats struct {
	Epochs int `json:"epochs"`
	Widen  int `json:"widen"`
	Shrink int `json:"shrink"`
}

// Tuning thresholds. The widen threshold must exceed twice the shrink
// threshold: after a 1→2 widening a saturated task's per-replica
// occupancy halves, so 0.90/2 = 0.45 > 0.40 keeps the tuner from
// immediately undoing its own decision.
const (
	tuneWidenUtil   = 0.90 // per-replica occupancy above which a task wants widening
	tuneShrinkUtil  = 0.40 // per-replica occupancy below which a width shrinks back
	tuneIdleCeiling = 0.95 // no widening once overall core occupancy exceeds this
	tuneHysteresis  = 2    // consecutive same-direction epochs before acting
	tuneCooldown    = 2    // epochs a width rests after a change
)

// tuner holds the autotuner's sampling state. The busy counters are
// written atomically by executing workers; everything else is touched
// only inside tuneEpoch (single sim goroutine, or under e.mu on the
// real backend).
type tuner struct {
	epoch int64 // epoch length on the epoch clock: virtual cycles (sim) or wall ns (real)

	auto []int   // task IDs declared replicate="auto", ascending
	cap  []int32 // width cap per task ID (meaningful for auto tasks)

	busy  []atomic.Int64 // execution time charged per task since run start
	last  []int64        // busy snapshot at the previous epoch boundary
	delta []int64        // per-epoch scratch: busy delta this epoch

	up   []int // consecutive epochs a task has wanted widening
	down []int // consecutive epochs a task has wanted shrinking
	cool []int // epochs a task's width still rests after a change

	extra int // Σ (width − 1) over the auto tasks: buffer sets the widths add

	stats TuneStats
	log   []TuneDecision

	// pub is the tuner state App.Snapshot reads: stats plus the tail of
	// the decision log, republished as a fresh immutable value at the
	// end of every epoch, so after the last epoch its stats are final.
	// stats and log themselves are engine-side only (sim goroutine /
	// under mu).
	pub atomic.Pointer[TuneView]
}

// TuneView is a point-in-time copy of the autotuner's public state,
// published for snapshots; the final Report's is the run's last.
type TuneView struct {
	Stats TuneStats      `json:"stats"`
	Tail  []TuneDecision `json:"tail"` // most recent decisions, oldest first
}

// tuneTailLen bounds the published decision-log tail.
const tuneTailLen = 32

// newTuner builds the tuner for an engine whose Config.Autotune is set
// and attaches it to every probe, which feed it its samples. Widths are
// capped statically at min(PipelineDepth, Cores) — the pipeline window
// bounds how many iterations of a task can exist, and widening past the
// core count only adds memory pressure — and, when the prediction model
// covers every class, at the model's useful width: a replica width beyond
// ceil(taskCost / max(Work/Cores, CriticalPath/PipelineDepth)) cannot
// move the steady-state bound, so the tuner never explores it.
func newTuner(e *engine) *tuner {
	a := e.app
	n := len(a.plan.Tasks)
	tu := &tuner{
		busy:  make([]atomic.Int64, n),
		last:  make([]int64, n),
		delta: make([]int64, n),
		up:    make([]int, n),
		down:  make([]int, n),
		cool:  make([]int, n),
		cap:   make([]int32, n),
	}
	for i := range e.probes {
		e.probes[i].tu = tu
	}
	capW := min(a.cfg.PipelineDepth, a.cfg.Cores)
	for _, t := range a.plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		rep, err := graph.TaskReplicate(t)
		if err != nil || !rep.Auto {
			continue
		}
		tu.auto = append(tu.auto, t.ID)
		tu.cap[t.ID] = int32(capW)
	}
	if len(tu.auto) > 0 {
		tu.consultModel(e)
	}
	return tu
}

// consultModel tightens the per-task width caps using the analytic cost
// model (internal/predict). Best effort: programs with classes outside
// the model's component library keep the static caps.
func (tu *tuner) consultModel(e *engine) {
	a := e.app
	model := predict.NewDefaultModel()
	costs := make([]int64, len(a.plan.Tasks))
	for _, t := range a.plan.Tasks {
		c, err := model.TaskCycles(a.prog, t)
		if err != nil {
			return
		}
		costs[t.ID] = c
	}
	cost := func(t *graph.Task) int64 { return costs[t.ID] }
	floor := a.plan.TotalWork(cost) / int64(a.cfg.Cores)
	if cp := a.plan.CriticalPath(cost) / int64(a.cfg.PipelineDepth); cp > floor {
		floor = cp
	}
	if floor <= 0 {
		return
	}
	for _, id := range tu.auto {
		useful := int32((costs[id] + floor - 1) / floor)
		if useful < 1 {
			useful = 1
		}
		if useful < tu.cap[id] {
			tu.cap[id] = useful
		}
	}
}

// tuneEpoch runs one decision round: sample the per-task occupancy
// accumulated since the last epoch, widen saturated auto tasks / shrink
// idle ones (with hysteresis and a post-change cooldown). Deterministic on
// the sim backend: it runs on the sim goroutine at virtual-time
// boundaries and sweeps tasks in ID order. Must be called with mu held
// on the real backend.
func (e *engine) tuneEpoch() {
	tu := e.tu
	epoch := tu.stats.Epochs
	tu.stats.Epochs++
	var total int64
	for i := range tu.busy {
		b := tu.busy[i].Load()
		tu.delta[i] = b - tu.last[i]
		tu.last[i] = b
		total += tu.delta[i]
	}
	totalUtil := float64(total) / float64(tu.epoch*int64(e.app.cfg.Cores))
	for _, id := range tu.auto {
		if tu.cool[id] > 0 {
			tu.cool[id]--
			continue
		}
		w := e.widths[id].Load()
		util := float64(tu.delta[id]) / float64(tu.epoch*int64(w))
		switch {
		case util >= tuneWidenUtil && totalUtil < tuneIdleCeiling && w < tu.cap[id]:
			tu.down[id] = 0
			tu.up[id]++
			if tu.up[id] >= tuneHysteresis {
				tu.up[id] = 0
				tu.cool[id] = tuneCooldown
				e.resizeWidth(epoch, id, int(w), int(w)+1)
			}
		case util <= tuneShrinkUtil && w > 1:
			tu.up[id] = 0
			tu.down[id]++
			if tu.down[id] >= tuneHysteresis {
				tu.down[id] = 0
				tu.cool[id] = tuneCooldown
				e.resizeWidth(epoch, id, int(w), int(w)-1)
			}
		default:
			tu.up[id], tu.down[id] = 0, 0
		}
	}
	tu.publish()
}

// publish republishes the tuner's snapshot view. Engine-side (sim
// goroutine or mu held), once per epoch — the copy is off the hot path.
func (tu *tuner) publish() {
	v := &TuneView{Stats: tu.stats}
	tail := tu.log
	if len(tail) > tuneTailLen {
		tail = tail[len(tail)-tuneTailLen:]
	}
	v.Tail = append([]TuneDecision(nil), tail...)
	tu.pub.Store(v)
}

// resizeWidth applies one width decision: record it, trace it, resize
// the live cross-iteration dependency distance, and set the stream-FIFO
// capacity the widths call for. An iteration holds one buffer set from
// its first job until it retires, so a task w wide needs w − 1 sets
// beyond the configured capacity to keep w iterations of it in flight:
// cap = min(StreamCapacity + Σ over auto tasks (width − 1),
// PipelineDepth). Fixed replicate="N" widths stay outside the rule, so
// an untuned run keeps StreamCapacity. Must be called with mu held on
// the real backend, via tuneEpoch.
func (e *engine) resizeWidth(epoch, id, from, to int) {
	d := TuneDecision{Epoch: epoch, Task: id, Name: e.app.plan.Tasks[id].Name, From: from, To: to}
	e.tu.log = append(e.tu.log, d)
	if to > from {
		e.tu.stats.Widen++
	} else {
		e.tu.stats.Shrink++
	}
	e.probes[0].tune(d)
	e.setWidth(id, to)
	e.tu.extra += to - from
	cfg := &e.app.cfg
	e.setBufCap(min(cfg.StreamCapacity+e.tu.extra, cfg.PipelineDepth))
}

// setWidth publishes a new replica width for task id, then sweeps the
// in-flight window for iterations whose cross-iteration dependency the
// new width already satisfies. The sweep makes resizing sound against
// concurrent completions: a completer of iteration k-width either loads
// the new width after its done flag is set — and releases k itself — or
// its done flag was published before the sweep's read, in which case
// the sweep claims the release; crossClaim's CAS deduplicates when both
// do. Shrinks are covered by the same argument: an iteration whose
// old-width completer already fired long ago has its new back-iteration
// long done, so the sweep claims it. Must be called with mu held on the
// real backend.
func (e *engine) setWidth(id, width int) {
	e.widths[id].Store(int32(width))
	for k := e.retireNext; k < e.nextLaunch; k++ {
		it := e.iterAt(k)
		if it == nil {
			continue
		}
		back := e.iterAt(k - width)
		if back == nil || back.done[id].Load() {
			if it.crossClaim[id].CompareAndSwap(false, true) {
				e.release(k, it, id, &e.probes[0])
			}
		}
	}
}

// setBufCap publishes a new live stream-FIFO capacity and launches the
// iterations a raise admits. After a drop no new iteration launches
// until enough holders retire. An iteration launched before the drop
// still takes its set at its first dispatch, so occupancy can briefly
// exceed the new cap — never the PipelineDepth sets the window owns.
// Must be called with mu held on the real backend.
func (e *engine) setBufCap(c int) {
	e.bufCap.Store(int32(c))
	e.launch(&e.probes[0])
}
