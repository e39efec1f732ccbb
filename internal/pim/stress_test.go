package pim

// Concurrency stress for the persistent round executor: many rounds of
// tasks piled onto overlapping modules, checked under -race (the CI
// tier-1 run executes this package with the race detector). Tasks on
// one module mutate unsynchronized module state, so any violation of
// the per-module serialization contract shows up as a data race or a
// lost update.

import (
	"testing"

	"github.com/pimlab/pimtrie/internal/parallel"
)

// counterObj is deliberately unsynchronized: the Round contract says
// tasks on one module run sequentially, so plain increments must never
// be lost.
type counterObj struct{ n int }

func (c *counterObj) SizeWords() int { return 1 }

func TestRoundStressOverlappingModules(t *testing.T) {
	const (
		p      = 8
		rounds = 300
		tasks  = 64
	)
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(4))
	sys := NewSystem(p, WithSeed(42))
	defer sys.Close()

	ids := make([]uint64, p)
	setup := make([]Task, p)
	for i := 0; i < p; i++ {
		i := i
		setup[i] = Task{Module: i, SendWords: 1, Run: func(m *Module) Resp {
			return Resp{RecvWords: 1, Value: m.Alloc(&counterObj{})}
		}}
	}
	for i, r := range sys.Round(setup) {
		ids[i] = r.Value.(Addr).ID
	}

	perModule := make([]int, p)
	for round := 0; round < rounds; round++ {
		batch := make([]Task, tasks)
		for i := 0; i < tasks; i++ {
			// Skewed overlap: half the tasks hammer module 0, the rest
			// spread round-robin, so every round mixes a hot module with
			// cold ones.
			mod := 0
			if i%2 == 1 {
				mod = (round + i) % p
			}
			id := ids[mod]
			perModule[mod]++
			batch[i] = Task{Module: mod, SendWords: 1, Run: func(m *Module) Resp {
				c := m.Get(id).(*counterObj)
				c.n++
				m.Work(1)
				return Resp{RecvWords: 1, Value: c.n}
			}}
		}
		sys.Round(batch)
	}

	check := make([]Task, p)
	for i := 0; i < p; i++ {
		id := ids[i]
		check[i] = Task{Module: i, SendWords: 1, Run: func(m *Module) Resp {
			return Resp{RecvWords: 1, Value: m.Get(id).(*counterObj).n}
		}}
	}
	for i, r := range sys.Round(check) {
		if got := r.Value.(int); got != perModule[i] {
			t.Errorf("module %d: lost updates: counter=%d want %d", i, got, perModule[i])
		}
	}
	m := sys.Metrics()
	if want := int64(rounds + 2); m.Rounds != want {
		t.Errorf("rounds: got %d want %d", m.Rounds, want)
	}
	if want := int64(rounds * tasks); m.PIMWork != want {
		t.Errorf("PIMWork: got %d want %d", m.PIMWork, want)
	}
}

// TestRoundStressSingleTask drives the inline fast path (one busy
// module) interleaved with fan-out rounds, ensuring the two execution
// paths share scratch without corrupting accounting.
func TestRoundStressSingleTask(t *testing.T) {
	const p = 4
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(4))
	sys := NewSystem(p, WithSeed(7))
	defer sys.Close()
	var pimWork int64
	for round := 0; round < 200; round++ {
		if round%3 == 0 {
			batch := make([]Task, p)
			for i := 0; i < p; i++ {
				batch[i] = Task{Module: i, SendWords: 1, Run: func(m *Module) Resp {
					m.Work(2)
					return Resp{RecvWords: 1}
				}}
			}
			sys.Round(batch)
			pimWork += 2 // max per module, all equal
		} else {
			sys.Round([]Task{{Module: round % p, SendWords: 1, Run: func(m *Module) Resp {
				m.Work(1)
				return Resp{RecvWords: 1}
			}}})
			pimWork++
		}
	}
	if got := sys.Metrics().PIMTime; got != pimWork {
		t.Errorf("PIMTime: got %d want %d", got, pimWork)
	}
}
