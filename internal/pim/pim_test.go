package pim

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/pimlab/pimtrie/internal/parallel"
)

type sizedObj struct{ w int }

func (s sizedObj) SizeWords() int { return s.w }

func TestAllocGetFreeSpace(t *testing.T) {
	s := NewSystem(4)
	m := s.Module(2)
	a := m.Alloc(sizedObj{w: 10})
	b := m.Alloc("plain") // un-Sized values cost one word
	if a.Module != 2 || b.Module != 2 {
		t.Fatalf("addresses on wrong module: %v %v", a, b)
	}
	if m.SpaceWords() != 11 {
		t.Fatalf("space = %d, want 11", m.SpaceWords())
	}
	if got := m.Get(a.ID).(sizedObj); got.w != 10 {
		t.Fatalf("Get returned %+v", got)
	}
	m.Free(a.ID)
	if m.SpaceWords() != 1 {
		t.Fatalf("space after free = %d", m.SpaceWords())
	}
	if m.Objects() != 1 {
		t.Fatalf("objects = %d", m.Objects())
	}
}

// TestReserveThenStore: an address the host reserves is the one the
// object is later stored at, Alloc never hands it out again, and a store
// at an address never reserved or already live panics.
func TestReserveThenStore(t *testing.T) {
	s := NewSystem(2)
	a := s.Reserve(1)
	b := s.Module(1).Alloc("next")
	if a.Module != 1 || b.ID == a.ID {
		t.Fatalf("reserved %v, then Alloc gave %v", a, b)
	}
	s.Round([]Task{{Module: 1, SendWords: 3, Run: func(m *Module) Resp {
		m.Store(a.ID, sizedObj{w: 7})
		return Resp{}
	}}})
	if got := s.Module(1).Get(a.ID).(sizedObj); got.w != 7 || s.Module(1).SpaceWords() != 8 {
		t.Fatalf("stored %+v, space %d", got, s.Module(1).SpaceWords())
	}
	for _, id := range []uint64{a.ID, b.ID + 1} {
		func() {
			defer func() {
				if _, ok := recover().(*InvariantError); !ok {
					t.Errorf("Store at %d did not panic with an InvariantError", id)
				}
			}()
			s.Module(1).Store(id, 1)
		}()
	}
}

func TestGetDanglingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dangling Get")
		}
	}()
	NewSystem(1).Module(0).Get(999)
}

func TestDoubleFreePanics(t *testing.T) {
	s := NewSystem(1)
	m := s.Module(0)
	a := m.Alloc(1)
	m.Free(a.ID)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double free")
		}
	}()
	m.Free(a.ID)
}

func TestResizeReaccounts(t *testing.T) {
	s := NewSystem(1)
	m := s.Module(0)
	obj := &mutableObj{w: 5}
	a := m.Alloc(obj)
	if m.SpaceWords() != 5 {
		t.Fatalf("space = %d", m.SpaceWords())
	}
	obj.w = 50
	m.Resize(a.ID)
	if m.SpaceWords() != 50 {
		t.Fatalf("space after resize = %d", m.SpaceWords())
	}
}

type mutableObj struct{ w int }

func (m *mutableObj) SizeWords() int { return m.w }

func TestRoundAccounting(t *testing.T) {
	s := NewSystem(4, WithSeed(7))
	// Round 1: two tasks to module 0 (3+5 sent, 2+1 recv = 11 IO),
	// one to module 3 (7 sent, 4 recv = 11 IO).
	resps := s.Round([]Task{
		{Module: 0, SendWords: 3, Run: func(m *Module) Resp { m.Work(10); return Resp{RecvWords: 2, Value: "a"} }},
		{Module: 0, SendWords: 5, Run: func(m *Module) Resp { m.Work(20); return Resp{RecvWords: 1} }},
		{Module: 3, SendWords: 7, Run: func(m *Module) Resp { m.Work(5); return Resp{RecvWords: 4} }},
	})
	if resps[0].Value != "a" {
		t.Fatalf("resp order broken: %+v", resps)
	}
	mt := s.Metrics()
	if mt.Rounds != 1 {
		t.Fatalf("rounds = %d", mt.Rounds)
	}
	if mt.IOWords != 22 {
		t.Fatalf("IOWords = %d, want 22", mt.IOWords)
	}
	if mt.IOTime != 11 {
		t.Fatalf("IOTime = %d, want 11 (max module)", mt.IOTime)
	}
	if mt.PIMWork != 35 || mt.PIMTime != 30 {
		t.Fatalf("PIMWork=%d PIMTime=%d, want 35/30", mt.PIMWork, mt.PIMTime)
	}
	if mt.PerModuleIO[0] != 11 || mt.PerModuleIO[3] != 11 || mt.PerModuleIO[1] != 0 {
		t.Fatalf("per-module IO: %v", mt.PerModuleIO)
	}
}

func TestRoundsAccumulateIOTimeAsMaxPerRound(t *testing.T) {
	s := NewSystem(2)
	for i := 0; i < 3; i++ {
		s.Round([]Task{
			{Module: 0, SendWords: 10, Run: func(m *Module) Resp { return Resp{} }},
			{Module: 1, SendWords: 4, Run: func(m *Module) Resp { return Resp{} }},
		})
	}
	mt := s.Metrics()
	if mt.Rounds != 3 || mt.IOTime != 30 || mt.IOWords != 42 {
		t.Fatalf("metrics = %+v", mt)
	}
}

func TestTasksOnSameModuleRunSequentially(t *testing.T) {
	s := NewSystem(1)
	order := make([]int, 0, 100)
	tasks := make([]Task, 100)
	for i := range tasks {
		i := i
		tasks[i] = Task{Module: 0, Run: func(m *Module) Resp {
			order = append(order, i) // safe only if sequential
			return Resp{}
		}}
	}
	s.Round(tasks)
	if len(order) != 100 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: tasks on one module not sequential", i, v)
		}
	}
}

func TestModulesRunConcurrently(t *testing.T) {
	// With P modules and a rendezvous counter, all programs must be in
	// flight at once (they wait for each other), proving cross-module
	// parallelism. Guarded by a worker cap of P.
	p := 8
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(p))
	s := NewSystem(p)
	var arrived int32
	done := make(chan struct{})
	tasks := make([]Task, p)
	for i := range tasks {
		tasks[i] = Task{Module: i, Run: func(m *Module) Resp {
			if atomic.AddInt32(&arrived, 1) == int32(p) {
				close(done)
			}
			<-done
			return Resp{}
		}}
	}
	s.Round(tasks) // would deadlock if modules were serialized
}

// TestCapOneRunsProgramsOneAtATime pins the one worker cap on module
// programs: at parallel.SetMaxProcs(1) a round over several busy
// modules never has two programs in flight. Each program waits briefly
// for another to start; run one at a time, none sees that happen.
func TestCapOneRunsProgramsOneAtATime(t *testing.T) {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	const p = 4
	s := NewSystem(p)
	defer s.Close()
	var started, inFlight atomic.Int32
	var overlap atomic.Bool
	tasks := make([]Task, p)
	for i := range tasks {
		tasks[i] = Task{Module: i, Run: func(m *Module) Resp {
			started.Add(1)
			if inFlight.Add(1) > 1 {
				overlap.Store(true)
			}
			for deadline := time.Now().Add(50 * time.Millisecond); started.Load() < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if inFlight.Load() > 1 {
				overlap.Store(true)
			}
			inFlight.Add(-1)
			return Resp{}
		}}
	}
	s.Round(tasks)
	if overlap.Load() {
		t.Fatal("two module programs ran at once under SetMaxProcs(1)")
	}
}

func TestBroadcast(t *testing.T) {
	s := NewSystem(5)
	resps := s.Broadcast(3, func(m *Module) Resp {
		m.Work(2)
		return Resp{RecvWords: 1, Value: m.ID()}
	})
	if len(resps) != 5 {
		t.Fatalf("%d resps", len(resps))
	}
	for i, r := range resps {
		if r.Value.(int) != i {
			t.Fatalf("resp %d from module %v", i, r.Value)
		}
	}
	mt := s.Metrics()
	if mt.IOWords != 5*4 || mt.IOTime != 4 {
		t.Fatalf("broadcast accounting: %+v", mt)
	}
}

func TestMetricsSubAndBalance(t *testing.T) {
	s := NewSystem(4)
	s.Round([]Task{{Module: 0, SendWords: 100, Run: func(m *Module) Resp { return Resp{} }}})
	before := s.Metrics()
	s.Round([]Task{
		{Module: 1, SendWords: 10, Run: func(m *Module) Resp { return Resp{} }},
		{Module: 2, SendWords: 10, Run: func(m *Module) Resp { return Resp{} }},
		{Module: 3, SendWords: 10, Run: func(m *Module) Resp { return Resp{} }},
		{Module: 0, SendWords: 10, Run: func(m *Module) Resp { return Resp{} }},
	})
	d := s.Metrics().Sub(before)
	if d.Rounds != 1 || d.IOWords != 40 {
		t.Fatalf("diff = %+v", d)
	}
	if b := d.IOBalance(); b != 1.0 {
		t.Fatalf("balanced round: balance = %f", b)
	}
	// The cumulative metrics are skewed towards module 0.
	if b := s.Metrics().IOBalance(); b <= 2.0 {
		t.Fatalf("skewed cumulative balance = %f, want > 2", b)
	}
}

func TestRandModuleCoversAll(t *testing.T) {
	s := NewSystem(8, WithSeed(42))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		m := s.RandModule()
		if m < 0 || m >= 8 {
			t.Fatalf("RandModule out of range: %d", m)
		}
		seen[m] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d modules drawn", len(seen))
	}
}

func TestCPUWork(t *testing.T) {
	s := NewSystem(1)
	s.CPUWork(5)
	s.CPUWork(7)
	if got := s.Metrics().CPUWork; got != 12 {
		t.Fatalf("CPUWork = %d", got)
	}
}

func TestSpaceWords(t *testing.T) {
	s := NewSystem(3)
	s.Module(0).Alloc(sizedObj{w: 4})
	s.Module(2).Alloc(sizedObj{w: 6})
	total, per := s.SpaceWords()
	if total != 10 || per[0] != 4 || per[1] != 0 || per[2] != 6 {
		t.Fatalf("space: total=%d per=%v", total, per)
	}
}

func TestEmptyRoundCounts(t *testing.T) {
	s := NewSystem(2)
	s.Round(nil)
	if s.Metrics().Rounds != 1 {
		t.Fatal("empty round not counted")
	}
}

func TestMetricsSubMismatchedVectors(t *testing.T) {
	// Snapshots from systems with different module counts (or zero-value
	// snapshots) must diff without panicking: missing entries are zero.
	big := NewSystem(4)
	big.Round([]Task{{Module: 3, SendWords: 9, Run: func(m *Module) Resp { return Resp{} }}})
	small := NewSystem(2)
	small.Round([]Task{{Module: 1, SendWords: 2, Run: func(m *Module) Resp { return Resp{} }}})

	d := big.Metrics().Sub(small.Metrics())
	if len(d.PerModuleIO) != 4 || d.PerModuleIO[3] != 9 || d.PerModuleIO[1] != -2 {
		t.Fatalf("big-small per-module IO = %v", d.PerModuleIO)
	}
	d = small.Metrics().Sub(big.Metrics())
	if len(d.PerModuleIO) != 2 || d.PerModuleIO[1] != 2 {
		t.Fatalf("small-big per-module IO = %v", d.PerModuleIO)
	}
	// Zero-value snapshot on either side.
	d = big.Metrics().Sub(Metrics{})
	if d.PerModuleIO[3] != 9 {
		t.Fatalf("sub of zero snapshot: %v", d.PerModuleIO)
	}
	d = Metrics{}.Sub(big.Metrics())
	if len(d.PerModuleIO) != 0 || d.Rounds != -1 {
		t.Fatalf("zero minus metrics: %+v", d)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Rounds: 1, IOWords: 5, PerModuleIO: []int64{1, 2}, PerModuleWrk: []int64{3}}
	b := Metrics{Rounds: 2, IOWords: 7, PerModuleIO: []int64{10}, PerModuleWrk: []int64{1, 1, 1}}
	s := a.Add(b)
	if s.Rounds != 3 || s.IOWords != 12 {
		t.Fatalf("Add scalars: %+v", s)
	}
	if len(s.PerModuleIO) != 2 || s.PerModuleIO[0] != 11 || s.PerModuleIO[1] != 2 {
		t.Fatalf("Add PerModuleIO: %v", s.PerModuleIO)
	}
	if len(s.PerModuleWrk) != 3 || s.PerModuleWrk[0] != 4 || s.PerModuleWrk[2] != 1 {
		t.Fatalf("Add PerModuleWrk: %v", s.PerModuleWrk)
	}
}

// logRecorder records every hook event for assertions.
type logRecorder struct {
	phases []string
	rounds []RoundTrace
	cpu    int64
}

func (r *logRecorder) BeginPhase(name string)    { r.phases = append(r.phases, "+"+name) }
func (r *logRecorder) EndPhase()                 { r.phases = append(r.phases, "-") }
func (r *logRecorder) RecordRound(tr RoundTrace) { r.rounds = append(r.rounds, tr.Clone()) }
func (r *logRecorder) RecordCPUWork(n int)       { r.cpu += int64(n) }

func TestRecorderObservesRoundsPhasesAndCPU(t *testing.T) {
	s := NewSystem(4)
	rec := &logRecorder{}
	s.SetRecorder(rec)
	end := s.Phase("outer")
	s.Round([]Task{
		{Module: 1, SendWords: 3, Run: func(m *Module) Resp { m.Work(9); return Resp{RecvWords: 2} }},
		{Module: 2, SendWords: 4, Run: func(m *Module) Resp { return Resp{RecvWords: 1} }},
	})
	s.CPUWork(5)
	end()
	s.Round(nil) // empty rounds are reported too
	s.SetRecorder(nil)
	s.Round([]Task{{Module: 0, SendWords: 1, Run: func(m *Module) Resp { return Resp{} }}})

	if len(rec.phases) != 2 || rec.phases[0] != "+outer" || rec.phases[1] != "-" {
		t.Fatalf("phases = %v", rec.phases)
	}
	if len(rec.rounds) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(rec.rounds))
	}
	tr := rec.rounds[0]
	if tr.MaxIO != 5 || tr.MaxWork != 9 || tr.Work != 9 || tr.SendWords != 7 || tr.RecvWords != 3 {
		t.Fatalf("round trace: %+v", tr)
	}
	if len(tr.ModID) != 2 || tr.ModID[0] != 1 || tr.ModIO[0] != 5 || tr.ModWork[0] != 9 || tr.ModIO[1] != 5 {
		t.Fatalf("sparse per-module: id=%v io=%v work=%v", tr.ModID, tr.ModIO, tr.ModWork)
	}
	if rec.cpu != 5 {
		t.Fatalf("cpu = %d", rec.cpu)
	}
	if rec.rounds[1].Tasks != 0 {
		t.Fatalf("empty round trace: %+v", rec.rounds[1])
	}
}

func TestPhaseWithoutRecorderIsNoop(t *testing.T) {
	s := NewSystem(1)
	end := s.Phase("anything")
	end() // must not panic
}

func TestSystemHook(t *testing.T) {
	var got []*System
	SetSystemHook(func(s *System) { got = append(got, s) })
	defer SetSystemHook(nil)
	a := NewSystem(2)
	b := NewSystem(3)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("hook saw %d systems", len(got))
	}
	SetSystemHook(nil)
	NewSystem(1)
	if len(got) != 2 {
		t.Fatal("hook ran after removal")
	}
}

func BenchmarkRound64Modules(b *testing.B) {
	s := NewSystem(64)
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Module: i, SendWords: 8, Run: func(m *Module) Resp {
			m.Work(100)
			return Resp{RecvWords: 8}
		}}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Round(tasks)
	}
}

func TestRoundTrace(t *testing.T) {
	s := NewSystem(4)
	s.Round([]Task{{Module: 0, SendWords: 5, Run: func(m *Module) Resp { return Resp{} }}})
	rec := &logRecorder{}
	s.SetRecorder(rec)
	s.Round([]Task{
		{Module: 1, SendWords: 3, Run: func(m *Module) Resp { m.Work(9); return Resp{RecvWords: 2} }},
		{Module: 2, SendWords: 4, Run: func(m *Module) Resp { return Resp{RecvWords: 1} }},
	})
	s.Round([]Task{{Module: 3, SendWords: 7, Run: func(m *Module) Resp { return Resp{} }}})
	s.SetRecorder(nil)
	s.Round(nil)
	tr := rec.rounds
	if len(tr) != 2 {
		t.Fatalf("trace has %d rounds", len(tr))
	}
	if tr[0].Tasks != 2 || tr[0].Modules != 2 || tr[0].SendWords != 7 || tr[0].RecvWords != 3 {
		t.Fatalf("round 1 trace: %+v", tr[0])
	}
	if tr[0].MaxIO != 5 || tr[0].MaxWork != 9 {
		t.Fatalf("round 1 maxima: %+v", tr[0])
	}
	if tr[1].Tasks != 1 || tr[1].SendWords != 7 {
		t.Fatalf("round 2 trace: %+v", tr[1])
	}
}
