// Fault injection for the PIM simulator.
//
// Real UPMEM-class deployments lose DPUs: launches fail, modules wedge,
// transfers are cut short. A FaultPlan makes the simulator reproduce
// those failures deterministically — every draw comes from a dedicated
// RNG derived from the system seed, and every draw happens on the host
// at a round boundary, so a chaos run is exactly replayable and its
// model metrics are independent of the worker cap.
package pim

import (
	"fmt"
	"math/rand"
	"sort"
)

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// FaultCrash crash-stops a module: its object memory is wiped and
	// every subsequent round that touches it returns a ModuleLostError
	// until the host calls Respawn.
	FaultCrash FaultKind = iota
	// FaultStraggle multiplies one module's accounted work for a single
	// round by the plan's StraggleFactor, feeding PIMTime and the
	// work-balance counters without losing state.
	FaultStraggle
	// FaultTruncate cuts one task's transfer short: the send is charged
	// but the program does not run; the simulator retries it in an
	// immediately following (fully accounted) round.
	FaultTruncate
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStraggle:
		return "straggle"
	case FaultTruncate:
		return "truncate"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent schedules one fault at a fixed round boundary. An event
// fires at the first round whose index is >= Round (rounds are counted
// by Metrics.Rounds at the time the round starts). Module selects the
// target; a negative Module draws one uniformly from the fault RNG.
type FaultEvent struct {
	Round  int64
	Kind   FaultKind
	Module int
}

// FaultPlan drives deterministic fault injection. Scheduled Events fire
// at their round boundaries; independently, each round draws against
// CrashProb / StraggleProb / TruncateProb (each in [0,1]). All draws
// come from a rand.Rand seeded with Seed — or, when Seed is zero, with
// a value derived from the system seed — so identical plans on
// identical systems inject identical faults.
type FaultPlan struct {
	Seed   int64
	Events []FaultEvent

	CrashProb    float64
	StraggleProb float64
	TruncateProb float64

	// MaxCrashes caps probability-drawn crashes (scheduled crash events
	// are exempt); 0 means unlimited.
	MaxCrashes int

	// StraggleFactor multiplies a straggler's accounted work for the
	// round; 0 means the default of 8.
	StraggleFactor int64
}

// ModuleLostError reports that one or more modules are crash-stopped.
// Round returns it (via TryRound) when a crash fires or when tasks
// target an already-dead module; the round's surviving tasks have run
// and been accounted. Recovery is the caller's job: Respawn the
// modules, rebuild their state, retry the batch.
type ModuleLostError struct {
	Modules []int // dead modules, ascending
	Round   int64 // Metrics.Rounds when the loss was reported
}

func (e *ModuleLostError) Error() string {
	return fmt.Sprintf("pim: module(s) %v crash-stopped (round %d)", e.Modules, e.Round)
}

// InvariantError is a bug trap: a dangling address, a double free, or a
// task targeting a module outside [0, P). These always indicate broken
// index code, never an injected fault — fault handlers must let them
// propagate (they are a distinct type from ModuleLostError precisely so
// chaos harnesses can tell the two apart).
type InvariantError struct {
	Op     string
	Module int
	ID     uint64
	Detail string
}

func (e *InvariantError) Error() string {
	s := fmt.Sprintf("pim: module %d: %s %d", e.Module, e.Op, e.ID)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// faultState is a System's live fault-injection state.
type faultState struct {
	plan      FaultPlan
	rng       *rand.Rand
	suspended int // >0 while injection is paused (e.g. during recovery)

	fired       []bool // per scheduled event
	randCrashes int    // probability-drawn crashes, for MaxCrashes
	dead        []bool // per module
	nDead       int
	counts      [3]int64 // injected faults by FaultKind
}

// WithFaults installs a fault plan on the system. The plan's RNG is
// seeded inside NewSystem (after all options ran) so that a zero
// plan.Seed can derive from the system seed regardless of option order.
func WithFaults(plan FaultPlan) Option {
	return func(s *System) {
		if plan.StraggleFactor <= 0 {
			plan.StraggleFactor = 8
		}
		s.faults = &faultState{plan: plan, fired: make([]bool, len(plan.Events))}
	}
}

// FaultsEnabled reports whether a fault plan is installed (suspended or
// not).
func (s *System) FaultsEnabled() bool { return s.faults != nil }

// SuspendFaults pauses fault injection; rounds behave as on a fault-free
// system until the matching ResumeFaults. Calls nest. Recovery code runs
// under suspension so the repair itself cannot be re-injured (and so the
// repair's round count does not consume fault draws).
func (s *System) SuspendFaults() {
	if s.faults != nil {
		s.faults.suspended++
	}
}

// ResumeFaults undoes one SuspendFaults.
func (s *System) ResumeFaults() {
	if s.faults != nil && s.faults.suspended > 0 {
		s.faults.suspended--
	}
}

// DeadModules returns the crash-stopped modules, ascending. It is empty
// on a fault-free or fully recovered system.
func (s *System) DeadModules() []int {
	if s.faults == nil || s.faults.nDead == 0 {
		return nil
	}
	out := make([]int, 0, s.faults.nDead)
	for mi, d := range s.faults.dead {
		if d {
			out = append(out, mi)
		}
	}
	sort.Ints(out)
	return out
}

// FaultCounts returns how many faults of each kind have been injected.
func (s *System) FaultCounts() (crashes, straggles, truncations int64) {
	if s.faults == nil {
		return 0, 0, 0
	}
	c := s.faults.counts
	return c[FaultCrash], c[FaultStraggle], c[FaultTruncate]
}

// Respawn brings crash-stopped modules back with empty memories. Object
// IDs keep advancing from where they were, so stale addresses held by
// the host can never alias a post-respawn allocation — they stay
// dangling and trip an InvariantError if used. The caller rebuilds the
// module's state afterwards.
func (s *System) Respawn(modules ...int) {
	for _, mi := range modules {
		if mi < 0 || mi >= s.p {
			panic(&InvariantError{Op: "respawn of invalid module", Module: mi})
		}
		m := s.modules[mi]
		m.objects = map[uint64]any{}
		m.sizes = map[uint64]int{}
		m.space = 0
		m.work = 0
		if s.faults != nil && s.faults.dead[mi] {
			s.faults.dead[mi] = false
			s.faults.nDead--
		}
	}
}

// faultDecision is one round boundary's draw outcome.
type faultDecision struct {
	crashed  []int // modules newly crashed at this boundary
	straggle int   // module straggling this round, or -1
	truncate bool  // truncate one transfer this round
}

// decide draws this round boundary's faults. The RNG consumption is
// fixed — each enabled probability always costs exactly one Float64 and
// one Intn regardless of outcome, and draws happen in a fixed order
// (scheduled events, crash, straggle, truncate) — so metrics-identical
// executions consume the fault RNG identically and stay replayable.
func (f *faultState) decide(s *System) faultDecision {
	d := faultDecision{straggle: -1}
	r := s.metrics.Rounds
	for i := range f.plan.Events {
		ev := &f.plan.Events[i]
		if f.fired[i] || ev.Round > r {
			continue
		}
		f.fired[i] = true
		mi := ev.Module
		if mi < 0 || mi >= s.p {
			mi = f.rng.Intn(s.p)
		}
		switch ev.Kind {
		case FaultCrash:
			d.crashed = f.crash(s, d.crashed, mi)
		case FaultStraggle:
			if !f.dead[mi] {
				d.straggle = mi
				f.counts[FaultStraggle]++
			}
		case FaultTruncate:
			d.truncate = true
			f.counts[FaultTruncate]++
		}
	}
	if f.plan.CrashProb > 0 {
		x, mi := f.rng.Float64(), f.rng.Intn(s.p)
		if x < f.plan.CrashProb && !f.dead[mi] &&
			(f.plan.MaxCrashes == 0 || f.randCrashes < f.plan.MaxCrashes) {
			f.randCrashes++
			d.crashed = f.crash(s, d.crashed, mi)
		}
	}
	if f.plan.StraggleProb > 0 {
		x, mi := f.rng.Float64(), f.rng.Intn(s.p)
		if x < f.plan.StraggleProb && !f.dead[mi] && d.straggle < 0 {
			d.straggle = mi
			f.counts[FaultStraggle]++
		}
	}
	if f.plan.TruncateProb > 0 {
		if x := f.rng.Float64(); x < f.plan.TruncateProb {
			d.truncate = true
			f.counts[FaultTruncate]++
		}
	}
	return d
}

// crash marks mi dead and wipes its memory, emulating a crash-stop with
// loss of module-local state. nextID is deliberately preserved (see
// Respawn).
func (f *faultState) crash(s *System, acc []int, mi int) []int {
	if f.dead[mi] {
		return acc
	}
	f.dead[mi] = true
	f.nDead++
	f.counts[FaultCrash]++
	m := s.modules[mi]
	m.objects = map[uint64]any{}
	m.sizes = map[uint64]int{}
	m.space = 0
	m.work = 0
	return append(acc, mi)
}

// maxTruncateRetries caps how many times transfers of a single Round
// call can be truncated, so a TruncateProb of 1 still terminates.
const maxTruncateRetries = 8

// roundFaulted is the fault-aware Round path. It draws this boundary's
// faults and decides what they do to the round; runRound executes and
// charges every pass. When nothing fires and no module is dead, the
// round runs as on a fault-free system. Otherwise a task addressed to a
// dead module is shipped and charged but its program does not run; a
// truncated task likewise, and it is retried in an immediately
// following pass (a round of its own, which draws its own faults); a
// straggler's work is multiplied.
func (s *System) roundFaulted(tasks []Task) ([]Resp, error) {
	f := s.faults
	d := f.decide(s)
	if len(d.crashed) == 0 && d.straggle < 0 && !d.truncate && f.nDead == 0 {
		return s.runRound(tasks, -1), nil
	}
	for i := range tasks {
		s.checkTarget(tasks, i)
	}

	resps := make([]Resp, len(tasks))
	pending := make([]int, len(tasks))
	for i := range tasks {
		pending[i] = i
	}
	lostDuringCall := len(d.crashed) > 0
	truncRetries := 0
	for first := true; first || len(pending) > 0; first = false {
		if !first {
			d = f.decide(s)
			if len(d.crashed) > 0 {
				lostDuringCall = true
			}
		}
		// Pick the truncation victim among pending tasks on live modules.
		truncIdx := -1
		if d.truncate && truncRetries < maxTruncateRetries {
			alive := make([]int, 0, len(pending))
			for _, ti := range pending {
				if !f.dead[tasks[ti].Module] {
					alive = append(alive, ti)
				}
			}
			if len(alive) > 0 {
				truncIdx = alive[f.rng.Intn(len(alive))]
				truncRetries++
			}
		}
		// The pass: every pending task, with the programs a dead module
		// or the truncation swallows taken out.
		pass := make([]Task, len(pending))
		var retry []int
		for j, ti := range pending {
			pass[j] = tasks[ti]
			if f.dead[pass[j].Module] || ti == truncIdx {
				pass[j].Run = nil
			}
			if ti == truncIdx {
				retry = append(retry, ti)
			}
		}
		for j, r := range s.runRound(pass, d.straggle) {
			resps[pending[j]] = r
		}
		pending = retry
	}

	if f.nDead > 0 {
		// Report when this call crashed a module, or when tasks were
		// addressed to a module that is already dead (their replies are
		// zero Resps — the host must not trust them).
		targetedDead := false
		for i := range tasks {
			if f.dead[tasks[i].Module] {
				targetedDead = true
				break
			}
		}
		if lostDuringCall || targetedDead {
			return resps, &ModuleLostError{Modules: s.DeadModules(), Round: s.metrics.Rounds}
		}
	}
	return resps, nil
}
