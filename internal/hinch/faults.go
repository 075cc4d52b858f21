package hinch

import (
	"fmt"
	"strings"
	"time"
)

// FaultKind classifies what a FaultInjector does to one component
// attempt.
type FaultKind int

const (
	// FaultNone leaves the attempt alone.
	FaultNone FaultKind = iota
	// FaultError makes the attempt fail with an injected error before
	// the component runs.
	FaultError
	// FaultPanic makes the attempt panic before the component runs; the
	// engine's containment must convert it into an error.
	FaultPanic
	// FaultDelay charges a latency spike at the component boundary —
	// virtual cycles on sim (1ns = 1 cycle), a sleep on real — and then
	// runs the component normally. Used to trip deadline watchdogs.
	FaultDelay
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultPanic:
		return "panic"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one injected fault. The zero value injects nothing.
type Fault struct {
	Kind  FaultKind
	Delay time.Duration // FaultDelay only
}

// FaultInjector decides, at every component dispatch, whether to
// inject a fault. It is consulted once per attempt (retries see
// attempt 1, 2, ...), before the component's Run executes, so a failed
// injected attempt never has partial side effects. Implementations
// must be safe for concurrent use: the real backend calls Inject from
// every worker. Config.Faults is nil in production; the engine
// consults it only through its probes (probe.inject), as it does
// TestHooks and Tracer.
type FaultInjector interface {
	Inject(task string, iter, attempt int) Fault
}

// SeededFaults is a deterministic hash-based FaultInjector: whether a
// given (task, iteration, attempt) is faulted depends only on Seed, so
// runs replay identically on both backends at any worker count.
type SeededFaults struct {
	Seed uint64
	// Rate injects a fault on roughly one in Rate attempts (default 16).
	// Ignored when From >= 0.
	Rate int
	// Task restricts injection to tasks whose name contains this
	// substring ("" = all component tasks).
	Task string
	// Kind is the fault to inject (default FaultError).
	Kind FaultKind
	// Delay is the latency spike for FaultDelay (default 2ms).
	Delay time.Duration
	// From, when >= 0, switches to a deterministic schedule: every
	// attempt of matching tasks at iterations >= From faults. This is
	// what the conformance harness and the -inject-faults from=N flag
	// use to force policy exhaustion and degradation.
	From int
}

// Inject implements FaultInjector.
func (s *SeededFaults) Inject(task string, iter, attempt int) Fault {
	if !strings.Contains(task, s.Task) {
		return Fault{}
	}
	f := Fault{Kind: s.Kind, Delay: s.Delay}
	if f.Kind == FaultNone {
		f.Kind = FaultError
	}
	if f.Kind == FaultDelay && f.Delay == 0 {
		f.Delay = 2 * time.Millisecond
	}
	if s.From >= 0 && s.From <= iter {
		return f
	}
	if s.From >= 0 {
		return Fault{}
	}
	rate := s.Rate
	if rate <= 0 {
		rate = 16
	}
	h := s.Seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(task); i++ {
		h = (h ^ uint64(task[i])) * 0x100000001B3
	}
	h ^= uint64(iter)<<20 ^ uint64(attempt)
	// splitmix64 finalizer, same mixing discipline as the conformance
	// generator's rnd.
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	if h%uint64(rate) != 0 {
		return Fault{}
	}
	return f
}

// ParseFaultSpec parses an xspclrun -inject-faults flag value of the
// form "seed=N[,task=SUBSTR][,rate=M][,kind=error|panic|delay]
// [,delay=DUR][,from=K]" into a SeededFaults injector.
func ParseFaultSpec(spec string) (*SeededFaults, error) {
	s := &SeededFaults{From: -1}
	for _, part := range strings.Split(spec, ",") {
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("hinch: fault spec %q: want key=value pairs", spec)
		}
		switch k {
		case "seed":
			if _, err := fmt.Sscanf(v, "%d", &s.Seed); err != nil {
				return nil, fmt.Errorf("hinch: fault spec: bad seed %q", v)
			}
		case "rate":
			if _, err := fmt.Sscanf(v, "%d", &s.Rate); err != nil || s.Rate < 1 {
				return nil, fmt.Errorf("hinch: fault spec: bad rate %q", v)
			}
		case "task":
			s.Task = v
		case "kind":
			switch v {
			case "error":
				s.Kind = FaultError
			case "panic":
				s.Kind = FaultPanic
			case "delay":
				s.Kind = FaultDelay
			default:
				return nil, fmt.Errorf("hinch: fault spec: bad kind %q (want error, panic or delay)", v)
			}
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("hinch: fault spec: bad delay %q", v)
			}
			s.Delay = d
		case "from":
			if _, err := fmt.Sscanf(v, "%d", &s.From); err != nil || s.From < 0 {
				return nil, fmt.Errorf("hinch: fault spec: bad from %q", v)
			}
		default:
			return nil, fmt.Errorf("hinch: fault spec: unknown key %q", k)
		}
	}
	return s, nil
}
