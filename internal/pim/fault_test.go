package pim

import (
	"errors"
	"reflect"
	"testing"
)

// allocOn allocates a one-word object on each module and returns the
// addresses.
func allocOn(t *testing.T, s *System, n int) []Addr {
	t.Helper()
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Module: i, SendWords: 1, Run: func(m *Module) Resp {
			return Resp{RecvWords: 1, Value: m.Alloc(uint64(7))}
		}}
	}
	resps, err := s.TryRound(tasks)
	if err != nil {
		t.Fatalf("setup round failed: %v", err)
	}
	out := make([]Addr, n)
	for i, r := range resps {
		out[i] = r.Value.(Addr)
	}
	return out
}

func TestScheduledCrashWipesModule(t *testing.T) {
	s := NewSystem(4, WithSeed(1), WithFaults(FaultPlan{
		Events: []FaultEvent{{Round: 1, Kind: FaultCrash, Module: 2}},
	}))
	defer s.Close()
	if !s.FaultsEnabled() {
		t.Fatal("FaultsEnabled false with a plan installed")
	}
	addrs := allocOn(t, s, 4) // round 0: before the event
	_, err := s.TryRound([]Task{{Module: 2, SendWords: 1, Run: func(m *Module) Resp {
		return Resp{Value: m.Get(addrs[2].ID)}
	}}})
	var lost *ModuleLostError
	if !errors.As(err, &lost) {
		t.Fatalf("expected ModuleLostError, got %v", err)
	}
	if !reflect.DeepEqual(lost.Modules, []int{2}) {
		t.Fatalf("lost modules = %v, want [2]", lost.Modules)
	}
	if got := s.Module(2).Objects(); got != 0 {
		t.Fatalf("dead module still holds %d objects", got)
	}
	if got := s.Module(1).Objects(); got != 1 {
		t.Fatalf("surviving module lost its object (have %d)", got)
	}
	if !reflect.DeepEqual(s.DeadModules(), []int{2}) {
		t.Fatalf("DeadModules = %v", s.DeadModules())
	}
	// Rounds targeting the dead module keep erroring; Round panics.
	func() {
		defer func() {
			if _, ok := recover().(*ModuleLostError); !ok {
				t.Error("Round did not panic with ModuleLostError")
			}
		}()
		s.Round([]Task{{Module: 2, SendWords: 1}})
	}()
	// Respawn clears the dead set; stale addresses stay dangling.
	s.Respawn(2)
	if len(s.DeadModules()) != 0 {
		t.Fatalf("DeadModules after Respawn = %v", s.DeadModules())
	}
	resps, err := s.TryRound([]Task{{Module: 2, SendWords: 1, Run: func(m *Module) Resp {
		return Resp{RecvWords: 1, Value: m.Alloc(uint64(9))}
	}}})
	if err != nil {
		t.Fatalf("round after respawn: %v", err)
	}
	if na := resps[0].Value.(Addr); na.ID <= addrs[2].ID {
		t.Fatalf("respawned module reused ID %d (old %d)", na.ID, addrs[2].ID)
	}
	crashes, _, _ := s.FaultCounts()
	if crashes != 1 {
		t.Fatalf("crash count = %d, want 1", crashes)
	}
}

func TestSuspendFaultsDelaysEvents(t *testing.T) {
	s := NewSystem(2, WithFaults(FaultPlan{
		Events: []FaultEvent{{Round: 0, Kind: FaultCrash, Module: 0}},
	}))
	defer s.Close()
	s.SuspendFaults()
	allocOn(t, s, 2) // would crash module 0 were injection active
	if len(s.DeadModules()) != 0 {
		t.Fatal("fault fired while suspended")
	}
	s.ResumeFaults()
	_, err := s.TryRound(nil) // event fires at the next boundary
	var lost *ModuleLostError
	if !errors.As(err, &lost) || !reflect.DeepEqual(lost.Modules, []int{0}) {
		t.Fatalf("after resume: err = %v", err)
	}
}

func TestStraggleAccounting(t *testing.T) {
	s := NewSystem(2, WithFaults(FaultPlan{
		Events:         []FaultEvent{{Round: 0, Kind: FaultStraggle, Module: 1}},
		StraggleFactor: 8,
	}))
	defer s.Close()
	work := func(m *Module) Resp { m.Work(10); return Resp{} }
	_, err := s.TryRound([]Task{
		{Module: 0, SendWords: 1, Run: work},
		{Module: 1, SendWords: 1, Run: work},
	})
	if err != nil {
		t.Fatalf("straggle round errored: %v", err)
	}
	m := s.Metrics()
	if m.PerModuleWrk[0] != 10 || m.PerModuleWrk[1] != 80 {
		t.Fatalf("per-module work = %v, want [10 80]", m.PerModuleWrk)
	}
	if m.PIMTime != 80 {
		t.Fatalf("PIMTime = %d, want 80 (straggler dominates)", m.PIMTime)
	}
	if m.PIMWork != 90 {
		t.Fatalf("PIMWork = %d, want 90", m.PIMWork)
	}
}

func TestTruncationRetries(t *testing.T) {
	s := NewSystem(2, WithSeed(3), WithFaults(FaultPlan{
		Events: []FaultEvent{{Round: 0, Kind: FaultTruncate}},
	}))
	defer s.Close()
	ran := make([]bool, 3)
	tasks := make([]Task, 3)
	for i := range tasks {
		i := i
		tasks[i] = Task{Module: i % 2, SendWords: 5, Run: func(m *Module) Resp {
			ran[i] = true
			return Resp{RecvWords: 1, Value: i}
		}}
	}
	resps, err := s.TryRound(tasks)
	if err != nil {
		t.Fatalf("truncated round errored: %v", err)
	}
	for i, r := range resps {
		if !ran[i] || r.Value.(int) != i {
			t.Fatalf("task %d did not complete after truncation (ran=%v)", i, ran[i])
		}
	}
	m := s.Metrics()
	if m.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2 (original + retry)", m.Rounds)
	}
	// The truncated transfer is charged twice (attempt + retry).
	if m.IOWords != 5*3+5+3 {
		t.Fatalf("IOWords = %d, want %d", m.IOWords, 5*3+5+3)
	}
	_, _, truncs := s.FaultCounts()
	if truncs != 1 {
		t.Fatalf("truncation count = %d, want 1", truncs)
	}
}

// TestFaultDeterminism drives the same scripted rounds on two systems
// with identical plans and on a third with different parallelism; all
// three must produce bit-identical metrics and fault counts.
func TestFaultDeterminism(t *testing.T) {
	run := func(par int) (Metrics, [3]int64) {
		s := NewSystem(8, WithSeed(5), WithMaxParallelism(par), WithFaults(FaultPlan{
			Seed:         11,
			CrashProb:    0.05,
			StraggleProb: 0.2,
			TruncateProb: 0.2,
			MaxCrashes:   2,
		}))
		defer s.Close()
		for r := 0; r < 60; r++ {
			tasks := make([]Task, 8)
			for i := range tasks {
				w := (r + i) % 5
				tasks[i] = Task{Module: i, SendWords: 1 + i, Run: func(m *Module) Resp {
					m.Work(w)
					return Resp{RecvWords: 1}
				}}
			}
			_, err := s.TryRound(tasks)
			if err != nil {
				s.Respawn(err.(*ModuleLostError).Modules...)
			}
		}
		var counts [3]int64
		counts[0], counts[1], counts[2] = s.FaultCounts()
		return s.Metrics(), counts
	}
	m1, c1 := run(1)
	m2, c2 := run(1)
	m8, c8 := run(8)
	if !reflect.DeepEqual(m1, m2) || c1 != c2 {
		t.Fatal("same-parallelism runs diverged")
	}
	if !reflect.DeepEqual(m1, m8) || c1 != c8 {
		t.Fatalf("metrics differ across parallelism:\n p=1: %+v %v\n p=8: %+v %v", m1, c1, m8, c8)
	}
	if c1[0] == 0 && c1[1] == 0 && c1[2] == 0 {
		t.Fatal("no faults injected; test is vacuous")
	}
}

func TestInvariantErrorTyped(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	mustInvariant := func(name string, fn func()) {
		t.Helper()
		defer func() {
			e, ok := recover().(*InvariantError)
			if !ok {
				t.Fatalf("%s: panic was not *InvariantError", name)
			}
			if e.Error() == "" {
				t.Fatalf("%s: empty error string", name)
			}
		}()
		fn()
	}
	mustInvariant("dangling get", func() { s.Module(0).Get(999) })
	mustInvariant("double free", func() {
		a := s.Module(0).Alloc(uint64(1))
		s.Module(0).Free(a.ID)
		s.Module(0).Free(a.ID)
	})
	mustInvariant("invalid target", func() {
		s.Round([]Task{{Module: 5}})
	})
}

// TestFaultFreePlanMatchesNoPlan: a plan whose probabilities are zero
// and whose events never fire must not change metrics at all.
func TestFaultFreePlanMatchesNoPlan(t *testing.T) {
	script := func(s *System) Metrics {
		defer s.Close()
		for r := 0; r < 10; r++ {
			s.Round([]Task{{Module: r % 4, SendWords: 2, Run: func(m *Module) Resp {
				m.Work(3)
				return Resp{RecvWords: 1}
			}}})
		}
		return s.Metrics()
	}
	plain := script(NewSystem(4, WithSeed(2)))
	faulted := script(NewSystem(4, WithSeed(2), WithFaults(FaultPlan{
		Events: []FaultEvent{{Round: 1 << 40, Kind: FaultCrash, Module: 0}},
	})))
	if !reflect.DeepEqual(plain, faulted) {
		t.Fatalf("inactive plan changed metrics:\nplain:   %+v\nfaulted: %+v", plain, faulted)
	}
}

// TestFaultedRoundTraceMatchesNormal pins that a faulted round reports
// the same trace as the normal path when the fault does not touch it: a
// straggler the round never addresses changes nothing, and a module the
// round addresses counts as busy even when its task ships no words.
func TestFaultedRoundTraceMatchesNormal(t *testing.T) {
	traceOf := func(opts ...Option) RoundTrace {
		s := NewSystem(4, opts...)
		defer s.Close()
		rec := &logRecorder{}
		s.SetRecorder(rec)
		s.Round([]Task{
			{Module: 0, SendWords: 0, Run: func(*Module) Resp { return Resp{} }},
			{Module: 1, SendWords: 5, Run: func(*Module) Resp { return Resp{} }},
		})
		tr := rec.rounds
		if len(tr) != 1 {
			t.Fatalf("traced %d rounds, want 1", len(tr))
		}
		return tr[0]
	}
	normal := traceOf()
	faulted := traceOf(WithFaults(FaultPlan{
		Events: []FaultEvent{{Round: 0, Kind: FaultStraggle, Module: 3}},
	}))
	if normal.Modules != 2 || !reflect.DeepEqual(normal.ModID, []int{0, 1}) {
		t.Fatalf("normal trace: Modules %d ModID %v, want 2 [0 1]", normal.Modules, normal.ModID)
	}
	if faulted.Modules != normal.Modules || !reflect.DeepEqual(faulted.ModID, normal.ModID) ||
		!reflect.DeepEqual(faulted.ModIO, normal.ModIO) {
		t.Fatalf("faulted trace Modules %d ModID %v ModIO %v, want %d %v %v",
			faulted.Modules, faulted.ModID, faulted.ModIO, normal.Modules, normal.ModID, normal.ModIO)
	}
}
